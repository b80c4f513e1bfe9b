package main

import (
	"strings"
	"testing"
)

func valueOf(key []byte, version uint32) []byte {
	v := make([]byte, valueLen)
	putValue(v, key, version)
	return v
}

func TestCheckValue(t *testing.T) {
	scratch := make([]byte, valueLen)
	key := []byte("0123456789abcdef")
	v := valueOf(key, 3)
	if err := checkValue(key, v, 3, scratch); err != nil {
		t.Fatalf("exact value rejected: %v", err)
	}
	if err := checkValue(key, v, 2, scratch); err == nil {
		t.Fatal("stale version accepted")
	}
	bad := append([]byte(nil), v...)
	bad[77] ^= 1
	if err := checkValue(key, bad, 3, scratch); err == nil {
		t.Fatal("corrupted value accepted")
	}
	if err := checkValue(key, v[:valueLen-1], 3, scratch); err == nil {
		t.Fatal("truncated value accepted")
	}
}

func runScan(r prefixRange, keys [][]byte, mutate func(i int, v []byte) []byte) error {
	c := &scanCheck{r: r, scratch: make([]byte, valueLen)}
	for i, k := range keys {
		v := valueOf(k, 0)
		if mutate != nil {
			v = mutate(i, v)
		}
		c.add(k, v)
	}
	return c.finish()
}

func TestScanCheck(t *testing.T) {
	keys := [][]byte{[]byte("ab00000000000000"), []byte("ab11111111111111"), []byte("abzzzzzzzzzzzzzz")}
	r := prefixRanges(keys)[0]
	if err := runScan(r, keys, nil); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	cases := []struct {
		name string
		keys [][]byte
		mut  func(int, []byte) []byte
		want string
	}{
		{"short", keys[:2], nil, "2 pairs, want 3"},
		{"corrupt value", keys, func(i int, v []byte) []byte {
			if i == 1 {
				v[9] ^= 0x40
			}
			return v
		}, "does not match"},
		{"unsorted", [][]byte{keys[1], keys[0], keys[2]}, nil, "not after"},
		{"out of range", append([][]byte{[]byte("aa00000000000000")}, keys[1:]...), nil, "out of range"},
	}
	for _, tc := range cases {
		err := runScan(r, tc.keys, tc.mut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
