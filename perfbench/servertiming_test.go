package main

import (
	"reflect"
	"testing"
)

func TestParseServerTiming(t *testing.T) {
	got, err := parseServerTiming("admission;dur=0.000, decode;dur=0.012, store_read;dur=1.250, total;dur=1.300")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"admission": 0, "decode": 0.012, "store_read": 1.25, "total": 1.3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got, err := parseServerTiming(""); err != nil || len(got) != 0 {
		t.Fatalf("empty header: %v %v", got, err)
	}
	for _, bad := range []string{"decode;dur=x", ";dur=1", "a;dur=1,,b;dur=2"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

// One case per rung, with the stage sets dabenchd's /v1/run lanes
// record, plus the cases that answer no rung.
func TestClassifyRung(t *testing.T) {
	cases := []struct {
		name   string
		status int
		timing string
		want   string
	}{
		{"verbatim body L0", 200, "admission;dur=0.000, total;dur=0.004", rungL0Body},
		{"canonical key L0", 200, "admission;dur=0.000, decode;dur=0.020, total;dur=0.031", rungL0Canonical},
		{"conditional on the body lane", 304, "admission;dur=0.000, total;dur=0.003", rungNotModified},
		{"conditional after decode", 304, "admission;dur=0.000, decode;dur=0.020, total;dur=0.025", rungNotModified},
		{"L2 frame, local or peer", 200, "admission;dur=0.000, decode;dur=0.020, store_read;dur=0.400, total;dur=0.500", rungStore},
		{"memo or simulation", 200, "admission;dur=0.001, decode;dur=0.020, compile;dur=0.900, run;dur=0.050, render;dur=0.010, store_read;dur=0.600, store_write;dur=0.002, total;dur=1.600", rungCompute},
		{"placement failure", 200, "admission;dur=0.001, decode;dur=0.020, compile;dur=0.300, render;dur=0.010, total;dur=0.400", rungCompute},
		{"sweep", 200, "admission;dur=0.001, decode;dur=0.050, run;dur=9.000, render;dur=0.100, total;dur=9.200", rungCompute},
	}
	for _, c := range cases {
		stages, err := parseServerTiming(c.timing)
		if err != nil {
			t.Fatal(err)
		}
		got, err := classifyRung(c.status, stages)
		if err != nil || got != c.want {
			t.Errorf("%s: got %q %v, want %q", c.name, got, err, c.want)
		}
	}
	for _, status := range []int{400, 429, 500} {
		if _, err := classifyRung(status, map[string]float64{"total": 1}); err == nil {
			t.Errorf("status %d classified", status)
		}
	}
}
