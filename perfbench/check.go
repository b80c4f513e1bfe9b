package main

import (
	"bytes"
	"fmt"
)

// checkValue verifies that got is exactly the value model's value of key
// at version. scratch must hold valueLen bytes.
func checkValue(key, got []byte, version uint32, scratch []byte) error {
	putValue(scratch, key, version)
	if !bytes.Equal(got, scratch) {
		return fmt.Errorf("get %q: value does not match version %d (len %d)", key, version, len(got))
	}
	return nil
}

// scanCheck verifies one Scan's stream as it arrives: pairs strictly
// ascending, inside [lo, hi), each value the model's version-0 value (the
// scanned data is never overwritten), and, at finish, exactly the expected
// count.
type scanCheck struct {
	r       prefixRange
	prev    []byte
	n       int
	scratch []byte
	err     error
}

func (c *scanCheck) add(key, value []byte) {
	c.n++
	if c.err != nil {
		return
	}
	switch {
	case bytes.Compare(key, c.r.lo) < 0 || bytes.Compare(key, c.r.hi) >= 0:
		c.err = fmt.Errorf("scan [%q, %q): key %q out of range", c.r.lo, c.r.hi, key)
	case c.n > 1 && bytes.Compare(key, c.prev) <= 0:
		c.err = fmt.Errorf("scan [%q, %q): key %q not after %q", c.r.lo, c.r.hi, key, c.prev)
	default:
		c.err = checkValue(key, value, 0, c.scratch)
	}
	c.prev = append(c.prev[:0], key...)
}

func (c *scanCheck) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.n != c.r.want {
		return fmt.Errorf("scan [%q, %q): %d pairs, want %d", c.r.lo, c.r.hi, c.n, c.r.want)
	}
	return nil
}
