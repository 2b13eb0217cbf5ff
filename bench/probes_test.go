package main

import "testing"

// The layer probes as go test benchmarks, for the planes whose packages
// have none of their own (netx, engine, updplane, the auditnet exchange,
// discplane) and the rest alongside:
//
//	go test -run '^$' -bench . -benchtime 2000x .
//
// Read the probes' own metrics, not ns/op: the engine, updplane and auditnet
// probes run once whatever b.N is.
func benchProbe(b *testing.B, layer string) {
	e, err := newProbeEnv(probeShard, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range probes {
		if p.layer != layer {
			continue
		}
		out := make(map[string]float64)
		b.ResetTimer()
		if err := p.run(e, b.N, out); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for name, v := range out {
			b.ReportMetric(v, name)
		}
		return
	}
	b.Fatalf("no probe for layer %s", layer)
}

func BenchmarkProbeNetx(b *testing.B)      { benchProbe(b, "netx") }
func BenchmarkProbeBGP(b *testing.B)       { benchProbe(b, "bgp") }
func BenchmarkProbeSigs(b *testing.B)      { benchProbe(b, "sigs") }
func BenchmarkProbeMerkle(b *testing.B)    { benchProbe(b, "merkle") }
func BenchmarkProbeEngine(b *testing.B)    { benchProbe(b, "engine") }
func BenchmarkProbeUpdplane(b *testing.B)  { benchProbe(b, "updplane") }
func BenchmarkProbeStore(b *testing.B)     { benchProbe(b, "store") }
func BenchmarkProbeAuditnet(b *testing.B)  { benchProbe(b, "auditnet") }
func BenchmarkProbeDiscplane(b *testing.B) { benchProbe(b, "discplane") }
func BenchmarkProbePrivplane(b *testing.B) { benchProbe(b, "privplane") }
