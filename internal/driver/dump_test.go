package driver_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/traffic"
)

// marker gives every leaf of a report a value no other leaf has and
// records what the dump must then hold.
type marker struct {
	next uint64
	want map[uint64]string // value -> the field it marks
}

func (m *marker) val(path string) uint64 {
	m.next++
	m.want[m.next] = path
	return m.next
}

func (m *marker) bits(path string, f float64) { m.want[math.Float64bits(f)] = path }

var welfordType = reflect.TypeOf(metrics.Welford{})

// mark walks v by reflection. An accumulator observes m.next values,
// so its count, mean, variance, min and max are unique too.
func (m *marker) mark(t *testing.T, v reflect.Value, path string) {
	switch {
	case v.Type() == welfordType:
		w := v.Addr().Interface().(*metrics.Welford)
		n := m.val(path + ".n")
		for i := uint64(0); i < n; i++ {
			w.Observe(float64(n) + float64(i)/4)
		}
		m.bits(path+".mean", w.Mean())
		m.bits(path+".var", w.Var())
		m.bits(path+".min", w.Min())
		m.bits(path+".max", w.Max())
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: the dump test cannot mark it", path, f.Name)
				continue
			}
			m.mark(t, v.Field(i), path+"."+f.Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			m.mark(t, v.Index(i), path)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			m.mark(t, v.Index(i), path)
		}
	case reflect.Uint64:
		v.SetUint(m.val(path))
	case reflect.Float64:
		m.next++
		f := float64(m.next) + 0.5
		v.SetFloat(f)
		m.bits(path, f)
	default:
		t.Errorf("%s is a %s: the dump test cannot mark it; give it a dump entry and a case here", path, v.Kind())
	}
}

// TestDumpListsEveryField walks driver.Stats and traffic.Stats — their
// transport.Stats, alloc.Counters and accumulators included — gives
// every field a value of its own and wants each value in the dump. A
// field added to any of them fails here until its report dumps it; the
// new entry then moves no pinned hash until a pinned list names it.
func TestDumpListsEveryField(t *testing.T) {
	// The dump lists an accumulator's count, mean, variance, min and max:
	// a new member needs an entry too.
	if n := welfordType.NumField(); n != 5 {
		t.Errorf("metrics.Welford has %d members, the dump lists 5 (n, mean, var from m2, min, max)", n)
	}
	m := &marker{next: 1000, want: map[uint64]string{}}
	var st driver.Stats
	var ts traffic.Stats
	m.mark(t, reflect.ValueOf(&st).Elem(), "driver.Stats")
	m.mark(t, reflect.ValueOf(&ts).Elem(), "traffic.Stats")
	for _, d := range []metrics.Dump{st.Dump(), ts.Dump()} {
		seen := map[metrics.Key]bool{}
		for _, e := range d {
			if seen[e.Key] {
				t.Errorf("the dump lists %s twice", e.Key)
			}
			seen[e.Key] = true
			delete(m.want, e.V)
		}
	}
	for v, path := range m.want {
		t.Errorf("%s (marked %d) has no dump entry", path, v)
	}
}
