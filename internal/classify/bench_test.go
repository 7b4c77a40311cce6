package classify

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readTestdata(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	return string(b), err
}

// benchKeys fabricates n distinct flow keys cheaply.
func benchKeys(n int) []FlowKey {
	keys := make([]FlowKey, n)
	for i := range keys {
		keys[i] = FlowKey{
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{192, 0, 2, byte(i >> 12)}),
			SrcPort: uint16(i),
			DstPort: 9000,
			Proto:   ProtoUDP,
		}
	}
	return keys
}

// BenchmarkFlowTableLookup1M measures a hit against a table holding one
// million resident flows — the ISSUE's committed scale target. Must stay
// at 0 allocs/op (pinned by TestFlowTableLookupAllocs).
func BenchmarkFlowTableLookup1M(b *testing.B) {
	const resident = 1 << 20
	ft := NewFlowTable(FlowTableConfig{MaxFlows: 1 << 21})
	keys := benchKeys(resident)
	for i, k := range keys {
		ft.Insert(k, i%8, 0)
	}
	if ft.Len() != resident {
		b.Fatalf("resident %d, want %d", ft.Len(), resident)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ft.Lookup(keys[i&(resident-1)], 1); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFlowTableInsert measures steady-state insert/update (no
// growth) on a warm table.
func BenchmarkFlowTableInsert(b *testing.B) {
	const resident = 1 << 16
	ft := NewFlowTable(FlowTableConfig{MaxFlows: 1 << 18})
	keys := benchKeys(resident)
	for i, k := range keys {
		ft.Insert(k, i%8, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Insert(keys[i&(resident-1)], i%8, int64(i))
	}
}

// BenchmarkClassifyHit measures the full per-datagram classification
// path when the flow is memoized (the steady-state ingress cost).
func BenchmarkClassifyHit(b *testing.B) {
	cfg, err := LoadConfig("testdata/full.conf")
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(cfg, FlowTableConfig{})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(1 << 12)
	for _, k := range keys {
		c.Classify(k, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(keys[i&(len(keys)-1)], 0, 1)
	}
}

// BenchmarkMatchScan measures the uncached first-match-wins filter scan
// (the per-flow, not per-packet, cost).
func BenchmarkMatchScan(b *testing.B) {
	cfg, err := LoadConfig("testdata/full.conf")
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(cfg, FlowTableConfig{})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Match(keys[i&(len(keys)-1)], 46)
	}
}

// BenchmarkParseConfig measures parsing the full corpus config.
func BenchmarkParseConfig(b *testing.B) {
	data, err := readTestdata("full.conf")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseConfig(strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
