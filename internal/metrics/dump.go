package metrics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
)

// Key names a Dump entry: Name for a scalar (Index -1), Name[Index] for
// an element of a series such as a per-cell tally.
type Key struct {
	Name  string
	Index int
}

func (k Key) String() string {
	if k.Index < 0 {
		return k.Name
	}
	return fmt.Sprintf("%s[%d]", k.Name, k.Index)
}

// Entry is one value of a Dump.
type Entry struct {
	Key
	V uint64
}

// Dump lists a report's values as exact integers in a fixed order: a
// count as it is, a float as its IEEE-754 bits (-0 as +0), an
// accumulator as its count and, unless that is 0, the bits of its mean,
// variance, min and max. Gates hash a pinned list of its names (Check),
// so an entry a report gains moves no pin until a list names it.
type Dump []Entry

// Put appends the scalar name = v.
func (d *Dump) Put(name string, v uint64) { *d = append(*d, Entry{Key{name, -1}, v}) }

// PutFloat appends the bits of f.
func (d *Dump) PutFloat(name string, f float64) {
	if f == 0 {
		f = 0 // -0 as +0
	}
	d.Put(name, math.Float64bits(f))
}

// PutWelford appends name.n and, when it is not 0, name.mean, name.var,
// name.min and name.max.
func (d *Dump) PutWelford(name string, w Welford) {
	d.Put(name+".n", w.N())
	if w.N() > 0 {
		d.PutFloat(name+".mean", w.Mean())
		d.PutFloat(name+".var", w.Var())
		d.PutFloat(name+".min", w.Min())
		d.PutFloat(name+".max", w.Max())
	}
}

// PutSeries appends name[0], name[1], ... = vs.
func (d *Dump) PutSeries(name string, vs []uint64) {
	for i, v := range vs {
		*d = append(*d, Entry{Key{name, i}, v})
	}
}

// String renders one aligned "name  value" line per entry.
func (d Dump) String() string {
	w := 0
	for _, e := range d {
		w = max(w, len(e.Key.String()))
	}
	var b strings.Builder
	for _, e := range d {
		fmt.Fprintf(&b, "%-*s  %d\n", w, e.Key, e.V)
	}
	return b.String()
}

// Names returns the keys of scalars.
func Names(names ...string) []Key {
	keys := make([]Key, len(names))
	for i, name := range names {
		keys[i] = Key{name, -1}
	}
	return keys
}

// Indexed returns the keys of n-element series taken index by index:
// names[0][0], names[1][0], ..., names[0][1], names[1][1], ...
func Indexed(n int, names ...string) []Key {
	keys := make([]Key, 0, n*len(names))
	for i := 0; i < n; i++ {
		for _, name := range names {
			keys = append(keys, Key{name, i})
		}
	}
	return keys
}

// Check hashes the values keys name with SHA-256, each as 8
// little-endian bytes in keys' order, and wants the hex digest to begin
// with want (16 characters at least). A mismatch lists every scalar the
// keys name as "name=value", to diff by name with another tree's
// listing. A key the dump lacks is an error, but for the moments an
// empty accumulator leaves out.
func (d Dump) Check(keys []Key, want string) error {
	at := make(map[string]int) // each name's first entry
	for i, e := range d {
		if e.Index <= 0 {
			at[e.Name] = i
		}
	}
	h := sha256.New()
	var buf [8]byte
	var listing strings.Builder
	for _, k := range keys {
		i, ok := at[k.Name]
		if i += max(k.Index, 0); !ok || i >= len(d) || d[i].Key != k {
			j := strings.LastIndexByte(k.Name, '.')
			if n, ok := at[k.Name[:j+1]+"n"]; j < 0 || !ok || d[n].V != 0 || !moments[k.Name[j+1:]] {
				return fmt.Errorf("metrics: the dump has no entry %s", k)
			}
			continue
		}
		if k.Index < 0 {
			fmt.Fprintf(&listing, "\n  %s=%d", k, d[i].V)
		}
		binary.LittleEndian.PutUint64(buf[:], d[i].V)
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(want) < 16 || !strings.HasPrefix(got, want) {
		return fmt.Errorf("hash %s, want %s; values:%s", got, want, listing.String())
	}
	return nil
}

// moments are the entries an empty accumulator leaves out.
var moments = map[string]bool{"mean": true, "var": true, "min": true, "max": true}
