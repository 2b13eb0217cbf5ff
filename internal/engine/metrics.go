package engine

import (
	"pvr/internal/obs"
)

// metrics are the engine's exported instruments. They are built even when
// Config.Obs is nil (the handles work detached), so the hot paths always
// observe unconditionally — a registry only decides whether anyone reads
// the numbers.
type metrics struct {
	accepts        *obs.Counter   // announcements accepted, all paths
	acceptSec      *obs.Histogram // single-announcement accept latency
	batchSec       *obs.Histogram // whole AcceptAll call latency
	batchSize      *obs.Histogram // announcements per AcceptAll
	batchVerifySec *obs.Histogram // batched Ed25519 pass latency
	sealSec        *obs.Histogram // whole SealEpoch / SealDirty latency
	shardSealSec   *obs.Histogram // one shard Merkle update + sign
	sealsTotal     *obs.Counter   // seal signatures produced
	shardsRebuilt  *obs.Counter   // dirty shards that updated their tree
	shardsResigned *obs.Counter   // clean shards that only re-signed
	leavesHashed   *obs.Counter   // leaf hashes computed by seals
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		accepts:        obs.NewCounter(r, "pvr_engine_accepts_total", "announcements accepted into the engine"),
		acceptSec:      obs.NewHistogram(r, "pvr_engine_accept_seconds", "AcceptAnnouncement latency (verify + record)", nil),
		batchSec:       obs.NewHistogram(r, "pvr_engine_accept_batch_seconds", "AcceptAll latency for a whole burst", nil),
		batchSize:      obs.NewHistogram(r, "pvr_engine_accept_batch_size", "announcements per AcceptAll burst", obs.SizeBuckets(1<<16)),
		batchVerifySec: obs.NewHistogram(r, "pvr_engine_batch_verify_seconds", "batched Ed25519 verification pass latency", nil),
		sealSec:        obs.NewHistogram(r, "pvr_engine_seal_seconds", "SealEpoch/SealDirty latency across all shards", nil),
		shardSealSec:   obs.NewHistogram(r, "pvr_engine_shard_seal_seconds", "single-shard Merkle update + sign latency", nil),
		sealsTotal:     obs.NewCounter(r, "pvr_engine_seals_total", "shard seal signatures produced"),
		shardsRebuilt:  obs.NewCounter(r, "pvr_engine_shards_rebuilt_total", "dirty shard seals that rehashed their changed Merkle leaves"),
		shardsResigned: obs.NewCounter(r, "pvr_engine_shards_resigned_total", "clean shard seals that only re-signed the root"),
		leavesHashed:   obs.NewCounter(r, "pvr_engine_leaves_hashed_total", "Merkle leaf hashes computed by shard seals"),
	}
}

// registerGauges exports the engine's live state into r; called once from
// New when a registry is configured.
func (e *ProverEngine) registerGauges(r *obs.Registry) {
	obs.NewGaugeFunc(r, "pvr_engine_epoch", "current commitment epoch", func() float64 {
		return float64(e.Epoch())
	})
	obs.NewGaugeFunc(r, "pvr_engine_window", "current commitment window within the epoch", func() float64 {
		return float64(e.Window())
	})
	obs.NewGaugeFunc(r, "pvr_engine_prefixes", "prefixes currently held by the engine", func() float64 {
		return float64(e.PrefixCount())
	})
	obs.NewGaugeFunc(r, "pvr_engine_shards", "configured shard count", func() float64 {
		return float64(e.ShardCount())
	})
}
