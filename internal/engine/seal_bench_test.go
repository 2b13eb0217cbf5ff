package engine

import (
	"fmt"
	"testing"

	"pvr/internal/core"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

// BenchmarkSealDirty times one SealDirty after Δ prefixes of an
// 8 192-prefix, 8-shard table were replaced in place, with export
// commitments sealed into the leaves (Config.Promisee set). Only the seal
// is timed; the replacements run with the timer stopped.
func BenchmarkSealDirty(b *testing.B) {
	const n, shards = 8192, 8
	e := newEnv(b, 1)
	eng, err := New(Config{
		ASN: tProver, Signer: e.signers[tProver], Registry: e.reg,
		Shards: shards, Promisee: tPromisee, Memo: sigs.NewVerifyMemo(),
	})
	if err != nil {
		b.Fatal(err)
	}
	eng.BeginEpoch(1)
	pfxs := testPrefixes(b, n)
	anns := make([]core.Announcement, n)
	for i, pfx := range pfxs {
		anns[i] = e.announce(b, 101, 1, pfx, 1+i%8)
		if err := eng.AcceptAnnouncement(anns[i], obs.TraceContext{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		b.Fatal(err)
	}
	next := 0
	for _, delta := range []int{1, 16, 400} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < delta; j++ {
					k := next * 4099 % n // a stride coprime to n visits every shard
					next++
					if err := eng.ReplacePrefix(pfxs[k], anns[k:k+1], obs.TraceContext{}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, _, err := eng.SealDirty(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
