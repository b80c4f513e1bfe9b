package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

func testDev(t *testing.T) *nvm.Device {
	t.Helper()
	d, err := nvm.Open(t.TempDir(), nvm.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sortedEntries(n int, seed int64) []memtable.Entry {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var keys []string
	for len(keys) < n {
		k := fmt.Sprintf("key-%08x", rng.Uint32())
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]memtable.Entry, n)
	for i, k := range keys {
		out[i] = memtable.Entry{Key: []byte(k), Value: []byte("val-" + k)}
	}
	return out
}

func TestWriteAndGetBothModes(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(200, 1)
	meta, err := WriteTable(dev, "db/r0", 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != 200 || meta.SSID != 1 || meta.DataBytes <= 0 {
		t.Fatalf("meta = %+v", meta)
	}
	for _, mode := range []SearchMode{BinarySearch, SequentialSearch} {
		for _, useBloom := range []bool{true, false} {
			for i := 0; i < 200; i += 13 {
				val, tomb, found, err := Get(dev, "db/r0", 1, entries[i].Key, mode, useBloom)
				if err != nil {
					t.Fatal(err)
				}
				if !found || tomb || !bytes.Equal(val, entries[i].Value) {
					t.Fatalf("mode=%v bloom=%v key %q: %q %v %v", mode, useBloom, entries[i].Key, val, tomb, found)
				}
			}
			if _, _, found, err := Get(dev, "db/r0", 1, []byte("zzz-absent"), mode, useBloom); err != nil || found {
				t.Fatalf("mode=%v bloom=%v: absent key found=%v err=%v", mode, useBloom, found, err)
			}
			if _, _, found, err := Get(dev, "db/r0", 1, []byte("aaa-absent"), mode, useBloom); err != nil || found {
				t.Fatalf("absent low key found=%v err=%v", found, err)
			}
		}
	}
}

func TestTombstoneRecord(t *testing.T) {
	dev := testDev(t)
	entries := []memtable.Entry{
		{Key: []byte("alive"), Value: []byte("v")},
		{Key: []byte("dead"), Tombstone: true},
	}
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	val, tomb, found, err := Get(dev, "d", 1, []byte("dead"), BinarySearch, true)
	if err != nil || !found || !tomb || len(val) != 0 {
		t.Fatalf("tombstone get = %q %v %v %v", val, tomb, found, err)
	}
}

func TestWriterRejectsUnsortedKeys(t *testing.T) {
	dev := testDev(t)
	w, err := NewWriter(dev, "d", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Add(memtable.Entry{Key: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(memtable.Entry{Key: []byte("a")}); err == nil {
		t.Fatal("descending key accepted")
	}
	if err := w.Add(memtable.Entry{Key: []byte("b")}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestScannerRoundTrip(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(500, 2)
	entries[7].Tombstone = true
	if _, err := WriteTable(dev, "d", 3, entries); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(dev, "d", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("readAll len = %d", len(got))
	}
	for i := range entries {
		if !bytes.Equal(got[i].Key, entries[i].Key) || !bytes.Equal(got[i].Value, entries[i].Value) || got[i].Tombstone != entries[i].Tombstone {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
	}
}

func TestScannerLargeValuesAcrossChunks(t *testing.T) {
	dev := testDev(t)
	// Values larger than the scanner chunk force multi-chunk fills.
	big := make([]byte, scannerChunk+12345)
	for i := range big {
		big[i] = byte(i)
	}
	entries := []memtable.Entry{
		{Key: []byte("a"), Value: big},
		{Key: []byte("b"), Value: []byte("small")},
		{Key: []byte("c"), Value: big[:scannerChunk-1]},
	}
	if _, err := WriteTable(dev, "d", 1, entries); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(dev, "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if !bytes.Equal(got[i].Value, entries[i].Value) {
			t.Fatalf("record %d value mismatch (len %d vs %d)", i, len(got[i].Value), len(entries[i].Value))
		}
	}
}

func TestEmptyTable(t *testing.T) {
	dev := testDev(t)
	meta, err := WriteTable(dev, "d", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != 0 {
		t.Fatalf("meta = %+v", meta)
	}
	if _, _, found, err := Get(dev, "d", 1, []byte("x"), BinarySearch, true); err != nil || found {
		t.Fatalf("get on empty table: %v %v", found, err)
	}
	all, err := readAll(dev, "d", 1)
	if err != nil || len(all) != 0 {
		t.Fatalf("readAll on empty = %v, %v", all, err)
	}
}

func TestListSSIDs(t *testing.T) {
	dev := testDev(t)
	for _, id := range []uint64{3, 1, 7} {
		if _, err := WriteTable(dev, "d", id, sortedEntries(5, int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	// An incomplete table (data only) must be ignored.
	dev.WriteFile(DataName("d", 9), []byte("partial"))
	ids, err := ListSSIDs(dev, "d")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 7}
	if len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] {
		t.Fatalf("ListSSIDs = %v", ids)
	}
}

func TestRemove(t *testing.T) {
	dev := testDev(t)
	if _, err := WriteTable(dev, "d", 1, sortedEntries(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Remove(dev, "d", 1); err != nil {
		t.Fatal(err)
	}
	ids, _ := ListSSIDs(dev, "d")
	if len(ids) != 0 {
		t.Fatalf("SSIDs after remove: %v", ids)
	}
}

// Property: writing any sorted key set and reading each key back (both
// search modes) returns the stored value.
func TestQuickWriteGet(t *testing.T) {
	dev := testDev(t)
	var ssid uint64
	f := func(raw map[string]string) bool {
		ssid++
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		entries := make([]memtable.Entry, len(keys))
		for i, k := range keys {
			entries[i] = memtable.Entry{Key: []byte(k), Value: []byte(raw[k])}
		}
		dir := fmt.Sprintf("q%d", ssid)
		if _, err := WriteTable(dev, dir, 1, entries); err != nil {
			return false
		}
		for _, k := range keys {
			for _, mode := range []SearchMode{BinarySearch, SequentialSearch} {
				val, _, found, err := Get(dev, dir, 1, []byte(k), mode, true)
				if err != nil || !found || string(val) != raw[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGetMissingTable(t *testing.T) {
	dev := testDev(t)
	if _, _, _, err := Get(dev, "nope", 1, []byte("k"), BinarySearch, true); err == nil {
		t.Fatal("Get on missing table succeeded")
	}
}

func BenchmarkBinarySearchGet(b *testing.B) {
	dev, _ := nvm.Open(b.TempDir(), nvm.DRAM)
	entries := sortedEntries(10000, 4)
	WriteTable(dev, "d", 1, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get(dev, "d", 1, entries[i%len(entries)].Key, BinarySearch, true)
	}
}

func BenchmarkSequentialSearchGet(b *testing.B) {
	dev, _ := nvm.Open(b.TempDir(), nvm.DRAM)
	entries := sortedEntries(10000, 4)
	WriteTable(dev, "d", 1, entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get(dev, "d", 1, entries[i%len(entries)].Key, SequentialSearch, true)
	}
}
