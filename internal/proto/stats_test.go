package proto

import (
	"reflect"
	"testing"
)

// TestStatsAddSubCoverEveryField fills every Stats field with a
// distinct value by reflection and checks Add and Sub field by field:
// it fails the day a counter is added to the struct and forgotten in
// either method, which would silently zero it in crash-merged and
// warm-up-adjusted results — or forgotten in Each, which would drop it
// from the series columns and the metrics.
func TestStatsAddSubCoverEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(uint64(1000 + 10*i))
		vb.Field(i).SetUint(uint64(1 + i))
	}
	sum := a.Add(b)
	if got := sum.Sub(b); got != a {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", got, a)
	}
	vs := reflect.ValueOf(sum)
	for i := 0; i < va.NumField(); i++ {
		if got, want := vs.Field(i).Uint(), va.Field(i).Uint()+vb.Field(i).Uint(); got != want {
			t.Errorf("Add: field %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
	// Each walks every field once, in declaration order.
	var walked []uint64
	a.Each(func(_ string, v uint64) { walked = append(walked, v) })
	if len(walked) != va.NumField() {
		t.Fatalf("Each visits %d counters, the struct has %d", len(walked), va.NumField())
	}
	for i, v := range walked {
		if want := va.Field(i).Uint(); v != want {
			t.Errorf("Each: counter %d = %d, want field %s = %d", i, v, va.Type().Field(i).Name, want)
		}
	}
}
