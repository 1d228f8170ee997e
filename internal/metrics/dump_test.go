package metrics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// TestDumpCheck: Check digests the named values as little-endian
// uint64s in the list's order, skips an empty accumulator's moments,
// refuses a name the dump lacks and lists the scalars on a mismatch.
func TestDumpCheck(t *testing.T) {
	var full, empty Welford
	full.Observe(2)
	full.Observe(4)
	var d Dump
	d.Put("grants", 7)
	d.PutFloat("p95", math.Copysign(0, -1))
	d.PutWelford("full", full)
	d.PutWelford("empty", empty)
	d.PutSeries("cell", []uint64{10, 11})
	d.PutSeries("other", []uint64{20, 21})

	keys := append(Names("p95", "grants", "full.n", "full.mean", "full.var", "full.min", "full.max",
		"empty.n", "empty.mean", "empty.var", "empty.min", "empty.max"), Indexed(2, "cell", "other")...)
	h := sha256.New()
	for _, v := range []uint64{0, 7, 2, math.Float64bits(3), math.Float64bits(2), math.Float64bits(2), math.Float64bits(4),
		0, 10, 20, 11, 21} {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	want := hex.EncodeToString(h.Sum(nil))
	if err := d.Check(keys, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Check(keys, want[:16]); err != nil {
		t.Fatalf("a 16-character prefix: %v", err)
	}
	err := d.Check(keys, strings.Repeat("0", 16))
	if err == nil || !strings.Contains(err.Error(), "grants=7") || !strings.Contains(err.Error(), want) {
		t.Fatalf("mismatch must give the hash and list the scalars by name: %v", err)
	}
	for _, k := range [][]Key{Names("grant"), Names("full"), Indexed(3, "cell"), Names("cell"), {{"grants", 0}}} {
		if err := d.Check(k, want); err == nil || !strings.Contains(err.Error(), "no entry") {
			t.Errorf("%v: a key the dump lacks must be an error, got %v", k, err)
		}
	}
}

// TestDumpString renders one aligned "name  value" line per entry, in
// the order they were put.
func TestDumpString(t *testing.T) {
	var d Dump
	d.Put("grants", 5)
	d.Put("denials", 1)
	d.PutSeries("cell", []uint64{7})
	if got, want := d.String(), "grants   5\ndenials  1\ncell[0]  7\n"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
