package fleetserver

import (
	"math"

	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
)

// Epoch rolling: the time axis of the ingest tier.
//
// Every tenant owns one tsstore.Series and one live aggregator, for the
// newest epoch it has merged. When a batch brings a newer epoch, the
// live aggregator's epoch is complete: it rolls into the series and a
// fresh aggregator takes the new epoch. An entry for an older epoch — a
// late arrival, already rolled — merges into an aggregator of its own
// for that batch, which rolls into the series window covering its
// epoch (tsstore.AppendEpoch's late-arrival path) before the batch
// releases the tenant lock. Config.Retention then downsamples the
// series; the zero retention folds nothing, so every rolled epoch stays
// a raw [e, e] window. A tenant's state therefore has one shape: the
// series, one live aggregator and the agent ledger, all under the
// tenant's one lock. Rolling preserves the ingest tier's keystone
// invariant: a rolled epoch's snapshot is bit-identical to the flat
// merge of its acked profiles (the Aggregator contract), and tsstore
// folding is lossless by construction, so any windowed query remains
// bit-identical to the flat merge of the acked profiles in those
// epochs — before, during and after folds. Exactly-once holds
// regardless: dedup is per (agent, seq), independent of epochs.

// merge folds one decoded profile into the tenant's state at epoch: the
// live aggregator takes the newest epoch (a newer one retires it into
// older), and each older epoch gets one aggregator in older, which
// collects the batch's rolls. Called with t.mu held.
func (t *tenant) merge(epoch uint64, in *profstore.Interned, older map[uint64]*profstore.Aggregator) {
	if t.live == nil || epoch > t.liveEpoch {
		if t.live != nil {
			older[t.liveEpoch] = t.live
		}
		t.live, t.liveEpoch = profstore.NewAggregator(), epoch
	}
	agg := t.live
	if epoch < t.liveEpoch {
		if agg = older[epoch]; agg == nil {
			agg = profstore.NewAggregator()
			older[epoch] = agg
		}
	}
	agg.IngestInterned(in)
}

// roll appends one batch's older-epoch aggregators to the tenant's
// series and downsamples it, with every epoch before the live one
// complete. Called with t.mu held, so no read sees a batch's acked
// profiles missing from both the series and the live aggregator.
func (s *Server) roll(t *tenant, older map[uint64]*profstore.Aggregator) {
	if len(older) == 0 {
		return
	}
	for e, agg := range older {
		t.series.AppendEpoch(e, agg.Snapshot())
	}
	t.series.Downsample(s.cfg.Retention, t.liveEpoch-1)
}

// view returns the tenant's time axis as the caller's own series: a
// copy of its rolled windows, plus the live epoch appended as a raw
// window (snapshotting its aggregator) when it lies inside
// [since, until], so a query pays for the live epoch only when it can
// see it. An unknown tenant yields an empty series. Every read goes
// through here.
//
// Under the tenant lock, view indexes the rolled windows in
// [since, until] on the tenant's own series (tsstore.Series.Index:
// only windows an append or a fold changed since the last query cost
// anything, one linear align each), so the clone shares their columns
// and the query sums them instead of merging rows; the index lives on
// the real series, where the next query finds it. The clone and the
// live aggregator are taken under the same lock; the snapshot (a copy
// and a sort) runs after it is released, so a read never blocks the
// writers for longer than the index takes. That counts nothing twice
// and drops no acked profile: under the lock each acked profile sits
// either in the series (so in the clone) or in the live aggregator;
// when that aggregator rolls after the lock is released, it rolls into
// the tenant's series, not into the clone; and a rolled aggregator
// takes no merges from later batches.
func (s *Server) view(tenantName string, since, until uint64) *tsstore.Series {
	s.mu.Lock()
	t := s.tenants[tenantName]
	s.mu.Unlock()
	if t == nil {
		return &tsstore.Series{}
	}
	var live *profstore.Aggregator
	t.mu.Lock()
	t.series.Index(since, until)
	out := t.series.Clone()
	epoch := t.liveEpoch
	if since <= epoch && epoch <= until {
		live = t.live
	}
	t.mu.Unlock()
	if live != nil {
		out.AppendEpoch(epoch, live.Snapshot())
	}
	return out
}

// SeriesSnapshot returns the tenant's full time axis as a series:
// every rolled window plus every still-live epoch appended as a raw
// window, so the result covers all merged state regardless of roll
// timing. Returns an empty series for an unknown tenant. The returned
// series is the caller's own — safe to downsample, save or query
// without further locking.
func (s *Server) SeriesSnapshot(tenantName string) *tsstore.Series {
	return s.view(tenantName, 0, math.MaxUint64)
}

// Window merges the tenant's state over the inclusive epoch range
// [since, until] — rolled windows and live epochs alike — into one
// canonical profile, returning the spans that contributed. The result
// is bit-identical to the flat profstore.Merge of every acked profile
// in those spans. A nil profile is never returned; an empty overlap
// (or unknown tenant) yields an empty profile and no spans.
func (s *Server) Window(tenantName string, since, until uint64) (*profstore.Profile, []tsstore.Span) {
	return s.view(tenantName, since, until).Window(since, until)
}

// Snapshot returns the merged profile for one tenant and epoch — a
// canonical profile bit-identical to profstore.Merge over exactly the
// profiles acked into that pair, whether the epoch is still live or
// already rolled into the tenant's series as a raw window. It returns
// nil if nothing has been merged there, or once retention has folded
// the epoch into a wider window, beyond per-epoch recovery; query
// those through [Server.Window] or [Server.SeriesSnapshot]. Safe
// during ingestion; see profstore.Aggregator.Snapshot for the
// consistency contract.
func (s *Server) Snapshot(tenantName string, epoch uint64) *profstore.Profile {
	p, spans := s.Window(tenantName, epoch, epoch)
	if len(spans) != 1 || spans[0] != (tsstore.Span{Start: epoch, End: epoch}) {
		return nil
	}
	return p
}
