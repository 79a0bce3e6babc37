package transport

import (
	"reflect"
	"testing"
)

// TestStatsAddSubCoverEveryField fills every Stats field with a
// distinct value by reflection and checks Add and Sub field by field:
// it fails the day a counter is added to the struct and forgotten in
// either method, which would silently zero it in loadgen's crash-merged
// and warm-up-adjusted totals.
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
}
