package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"papyruskv/internal/bloom"
	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// readAll returns every record of SSTable ssid in key order.
func readAll(dev *nvm.Device, dir string, ssid uint64) ([]memtable.Entry, error) {
	sc, err := NewScanner(dev, dir, ssid)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var out []memtable.Entry
	for {
		e, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, e)
	}
}

// drain collects every entry a merge yields, as "key=value/tombstone".
func drain(t *testing.T, m *Merger) []string {
	t.Helper()
	var got []memtable.Entry
	for {
		e, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return entryStrings(got)
		}
		got = append(got, e)
	}
}

// tableStrings reads SSTable ssid back, as "key=value/tombstone".
func tableStrings(t *testing.T, dev *nvm.Device, dir string, ssid uint64) []string {
	t.Helper()
	got, err := readAll(dev, dir, ssid)
	if err != nil {
		t.Fatal(err)
	}
	return entryStrings(got)
}

func entryStrings(entries []memtable.Entry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, fmt.Sprintf("%s=%s/%v", e.Key, e.Value, e.Tombstone))
	}
	return out
}

func wantStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merge yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestMergeNewestWins(t *testing.T) {
	dev := testDev(t)
	// SSID 1: k1=old, k2=old, k3=only-in-1
	WriteTable(dev, "d", 1, []memtable.Entry{
		{Key: []byte("k1"), Value: []byte("old1")},
		{Key: []byte("k2"), Value: []byte("old2")},
		{Key: []byte("k3"), Value: []byte("only1")},
	})
	// SSID 2: k1 updated, k4 added
	WriteTable(dev, "d", 2, []memtable.Entry{
		{Key: []byte("k1"), Value: []byte("new1")},
		{Key: []byte("k4"), Value: []byte("only2")},
	})
	// SSID 3: k2 deleted
	WriteTable(dev, "d", 3, []memtable.Entry{
		{Key: []byte("k2"), Tombstone: true},
	})
	meta, err := WriteMerged(dev, "d", []uint64{3, 2, 1}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.SSID != 4 || meta.Count != 4 {
		t.Fatalf("merge meta = %+v", meta)
	}
	// The merge leaves the inputs in place — deleting them is the caller's
	// job, after the install+delete edit is committed to the manifest.
	ids, _ := ListSSIDs(dev, "d")
	if len(ids) != 4 {
		t.Fatalf("SSIDs after merge = %v, want inputs retained alongside the output", ids)
	}
	for _, id := range []uint64{1, 2, 3} {
		if err := Remove(dev, "d", id); err != nil {
			t.Fatal(err)
		}
	}
	ids, _ = ListSSIDs(dev, "d")
	if len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("SSIDs after removing inputs = %v", ids)
	}
	check := func(key, want string, wantTomb bool) {
		t.Helper()
		val, tomb, found, err := Get(dev, "d", 4, []byte(key), BinarySearch, true)
		if err != nil || !found {
			t.Fatalf("Get(%s) found=%v err=%v", key, found, err)
		}
		if tomb != wantTomb || string(val) != want {
			t.Fatalf("Get(%s) = %q tomb=%v; want %q tomb=%v", key, val, tomb, want, wantTomb)
		}
	}
	check("k1", "new1", false)
	check("k2", "", true) // tombstone carried through
	check("k3", "only1", false)
	check("k4", "only2", false)
}

// TestMergeRecencyNotSSIDOrder: list position, not SSID, decides which
// version wins. Leveled compaction produces exactly this — an L1 output
// carries a higher SSID than the L0 tables flushed before it, yet holds
// older data.
func TestMergeRecencyNotSSIDOrder(t *testing.T) {
	dev := testDev(t)
	WriteTable(dev, "d", 1, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("v1")},
		{Key: []byte("b"), Value: []byte("v1")},
		{Key: []byte("c"), Value: []byte("v1")},
		{Key: []byte("e"), Value: []byte("v1")},
	})
	WriteTable(dev, "d", 2, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("v2")},
		{Key: []byte("d"), Tombstone: true},
	})
	WriteTable(dev, "d", 5, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("v5")},
		{Key: []byte("b"), Value: []byte("v5")},
		{Key: []byte("c"), Tombstone: true},
		{Key: []byte("d"), Value: []byte("v5")},
	})
	inputs := []uint64{2, 5, 1} // newest first: 2, then 5, then 1
	want := []string{"a=v2/false", "b=v5/false", "c=/true", "d=/true", "e=v1/false"}

	m, closeAll, err := MergeTables(dev, "d", inputs)
	if err != nil {
		t.Fatal(err)
	}
	wantStrings(t, drain(t, m), want)
	closeAll()

	if _, err := WriteMerged(dev, "d", inputs, 6, false); err != nil {
		t.Fatal(err)
	}
	wantStrings(t, tableStrings(t, dev, "d", 6), want)
}

// TestMergeDropsBottomTombstones: a bottom-level output elides every
// tombstone, and the versions a tombstone shadowed go with it. An output of
// nothing but tombstones comes out empty.
func TestMergeDropsBottomTombstones(t *testing.T) {
	dev := testDev(t)
	WriteTable(dev, "d", 1, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("old")},
		{Key: []byte("b"), Value: []byte("keep")},
		{Key: []byte("c"), Value: []byte("old")},
	})
	WriteTable(dev, "d", 2, []memtable.Entry{
		{Key: []byte("a"), Tombstone: true},
		{Key: []byte("c"), Value: []byte("new")},
		{Key: []byte("d"), Tombstone: true},
	})
	meta, err := WriteMerged(dev, "d", []uint64{2, 1}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != 2 {
		t.Fatalf("bottom merge count = %d, want 2", meta.Count)
	}
	wantStrings(t, tableStrings(t, dev, "d", 3), []string{"b=keep/false", "c=new/false"})

	WriteTable(dev, "d", 4, []memtable.Entry{{Key: []byte("z"), Tombstone: true}})
	meta, err = WriteMerged(dev, "d", []uint64{4}, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != 0 {
		t.Fatalf("all-tombstone bottom merge count = %d, want 0", meta.Count)
	}
}

func TestMergeEquivalentToMap(t *testing.T) {
	dev := testDev(t)
	rng := rand.New(rand.NewSource(9))
	mirror := map[string]memtable.Entry{}
	var inputs []uint64
	for ssid := uint64(1); ssid <= 5; ssid++ {
		m := memtable.New()
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(400))
			e := memtable.Entry{Key: []byte(k), Value: []byte(fmt.Sprintf("v%d-%d", ssid, i)), Tombstone: rng.Intn(10) == 0}
			m.Put(e)
		}
		for _, e := range m.Entries() {
			mirror[string(e.Key)] = e
		}
		if _, err := WriteTable(dev, "d", ssid, m.Entries()); err != nil {
			t.Fatal(err)
		}
		inputs = append([]uint64{ssid}, inputs...) // newest first
	}
	meta, err := WriteMerged(dev, "d", inputs, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != len(mirror) {
		t.Fatalf("merged count = %d, mirror %d", meta.Count, len(mirror))
	}
	got, err := readAll(dev, "d", 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		want := mirror[string(e.Key)]
		if !bytes.Equal(e.Value, want.Value) || e.Tombstone != want.Tombstone {
			t.Fatalf("key %q: got %+v want %+v", e.Key, e, want)
		}
	}
}

func TestMergeSingleInput(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(50, 3)
	WriteTable(dev, "d", 1, entries)
	if _, err := WriteMerged(dev, "d", []uint64{1}, 2, false); err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(dev, "d", 2)
	if len(got) != 50 {
		t.Fatalf("merged single input = %d records", len(got))
	}
}

// TestMergeBloomSizedFromInputs asserts the output bloom filter is sized
// from the inputs' true entry counts: merging large tables keeps the
// configured 1% false-positive rate, and merging tiny tables does not
// allocate the old flat 1024-per-input estimate.
func TestMergeBloomSizedFromInputs(t *testing.T) {
	dev := testDev(t)
	a := sortedEntries(3000, 10)
	b := sortedEntries(3000, 11)
	if _, err := WriteTable(dev, "db/r0", 1, a); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTable(dev, "db/r0", 2, b); err != nil {
		t.Fatal(err)
	}
	meta, err := WriteMerged(dev, "db/r0", []uint64{2, 1}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count < 3000 {
		t.Fatalf("merged count = %d", meta.Count)
	}
	raw, err := dev.ReadFile(BloomName("db/r0", 3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := bloom.Load(raw[4:])
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent-%08d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Errorf("false-positive rate %.4f, want near the configured 0.01", rate)
	}

	// Tiny merge: two 10-entry tables. The old flat estimate (2048
	// expected keys) marshals to ~2.5KB; sizing from the real 20 keys
	// stays under the bloom package's 64-bit floor plus header.
	if _, err := WriteTable(dev, "db/r1", 1, sortedEntries(10, 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTable(dev, "db/r1", 2, sortedEntries(10, 13)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteMerged(dev, "db/r1", []uint64{2, 1}, 3, false); err != nil {
		t.Fatal(err)
	}
	raw, err = dev.ReadFile(BloomName("db/r1", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 500 {
		t.Errorf("tiny merge produced a %d-byte bloom file; sizing ignored the true input counts", len(raw))
	}
}

// TestMergeSurvivesCorruptIndex: the entry-count read is best-effort — a
// corrupt index falls back to an estimate instead of failing a merge that
// only needs the data files.
func TestMergeSurvivesCorruptIndex(t *testing.T) {
	dev := testDev(t)
	a := sortedEntries(20, 14)
	b := sortedEntries(20, 15)
	if _, err := WriteTable(dev, "db/r0", 1, a); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTable(dev, "db/r0", 2, b); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(IndexName("db/r0", 2), []byte("garbage-index-xx")); err != nil {
		t.Fatal(err)
	}
	meta, err := WriteMerged(dev, "db/r0", []uint64{2, 1}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count == 0 {
		t.Fatal("merge produced an empty table")
	}
}

func TestMergeScanNewestWins(t *testing.T) {
	dev := corruptDev(t)
	WriteTable(dev, "d", 1, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("old")},
		{Key: []byte("b"), Value: []byte("keep")},
	})
	WriteTable(dev, "d", 2, []memtable.Entry{
		{Key: []byte("a"), Value: []byte("new")},
		{Key: []byte("c"), Tombstone: true},
	})
	m, closeAll, err := MergeTables(dev, "d", []uint64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantStrings(t, drain(t, m), []string{"a=new/false", "b=keep/false", "c=/true"})
	closeAll()
	// Inputs must survive (a merge scan never deletes).
	ids, _ := ListSSIDs(dev, "d")
	if len(ids) != 2 {
		t.Fatalf("merge scan deleted inputs: %v", ids)
	}
}

// TestMergeSourceError: a failing source aborts the merge, and the error
// sticks — a consumer that keeps calling Next cannot skip past it.
func TestMergeSourceError(t *testing.T) {
	dev := corruptDev(t)
	WriteTable(dev, "d", 1, sortedEntries(10, 4))
	sc, err := NewScanner(dev, "d", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	wantErr := errors.New("stop here")
	pulls := 0
	failing := func() (memtable.Entry, bool, error) {
		pulls++
		if pulls == 3 {
			return memtable.Entry{}, false, wantErr
		}
		return sc.Next()
	}
	m, err := NewMerger([]Source{failing})
	if err != nil {
		t.Fatal(err)
	}
	yielded := 0
	for {
		_, ok, err := m.Next()
		if err != nil {
			if err != wantErr {
				t.Fatalf("err = %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("merge ended cleanly past a source error")
		}
		yielded++
	}
	if yielded != 1 {
		t.Fatalf("merge yielded %d entries before the error, want 1", yielded)
	}
	if _, _, err := m.Next(); err != wantErr {
		t.Fatalf("Next after the error = %v, want the sticky error", err)
	}
	if pulls != 3 {
		t.Fatalf("source pulled %d times after failing", pulls)
	}
}

func TestMergeScanMissingInput(t *testing.T) {
	dev := corruptDev(t)
	if _, _, err := MergeTables(dev, "d", []uint64{42}); err == nil {
		t.Fatal("missing input scanned")
	}
}

func TestMergeScanEmptyInputs(t *testing.T) {
	dev := corruptDev(t)
	m, closeAll, err := MergeTables(dev, "d", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	if got := drain(t, m); len(got) != 0 {
		t.Fatalf("merge over no inputs yielded %v", got)
	}
}
