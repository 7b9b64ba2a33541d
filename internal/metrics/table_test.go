package metrics

import (
	"slices"
	"testing"
)

// TestStatTable checks what the compiler cannot: each row has exactly
// one getter, a HELP text for its Prometheus family, a known INFO
// section, and no name another row already uses on the same surface.
func TestStatTable(t *testing.T) {
	seen := map[string]bool{}
	once := func(surface, name string) {
		if name == "" {
			return
		}
		if seen[surface+" "+name] {
			t.Errorf("%s name %q is used twice", surface, name)
		}
		seen[surface+" "+name] = true
	}
	for i, r := range stats {
		if (r.get == nil) == (r.tot == nil) {
			t.Errorf("row %d (%s%s%s): want exactly one of get and tot", i, r.prom, r.mc, r.info)
		}
		if (r.prom == "") != (r.help == "") {
			t.Errorf("row %d (%s): a Prometheus family needs a HELP text", i, r.prom)
		}
		if (r.info == "") != (r.sec == "") || r.sec != "" && !slices.Contains(infoSections[:], r.sec) {
			t.Errorf("row %d (%s): INFO section %q", i, r.info, r.sec)
		}
		once("prom", r.prom)
		once("stats", r.mc)
		once("INFO", r.info)
	}
}
