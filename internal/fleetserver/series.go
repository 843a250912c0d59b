package fleetserver

import (
	"math"

	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
)

// Epoch rolling: the time axis of the ingest tier.
//
// Every tenant owns one tsstore.Series. Each merge advances the
// tenant's epoch clock and rolls every completed epoch (older than the
// clock by at least EpochLag) out of its live aggregator into that
// series, which Config.Retention then downsamples; the zero retention
// folds nothing, so every rolled epoch stays a raw [e, e] window. A
// tenant's state therefore has one shape: the series, at most
// EpochLag live aggregators once merges settle, and the agent ledger.
// Rolling preserves the ingest tier's keystone invariant: a rolled
// epoch's snapshot is bit-identical to the flat merge of its acked
// profiles (the Aggregator contract), and tsstore folding is lossless
// by construction, so any windowed query remains bit-identical to the
// flat merge of the acked profiles in those epochs — before, during
// and after folds.
//
// A late profile for an already-rolled epoch is not refused: it lands
// in a fresh aggregator for that epoch and rolls again on the next
// merge, merging into the series window that already covers the epoch
// (tsstore.AppendEpoch's late-arrival path). Exactly-once still holds
// — dedup is per (agent, seq), independent of epochs.

// roll folds the tenant's completed epochs into its series and
// downsamples. Called by the merging connection after each batch.
func (s *Server) roll(t *tenant, epoch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch > t.maxEpoch {
		t.maxEpoch = epoch
	}
	if t.maxEpoch < s.cfg.EpochLag {
		return
	}
	horizon := t.maxEpoch - s.cfg.EpochLag // newest complete epoch
	rolled := false
	for e, ent := range t.epochs {
		// Skip epochs with merges in flight: a connection holding the
		// entry's aggregator must not have it snapshotted away beneath
		// it. The skipped epoch is not stuck — that connection's own
		// roll call, after releaseEpoch, picks it up.
		if e > horizon || ent.inflight > 0 {
			continue
		}
		delete(t.epochs, e)
		// Snapshot under t.mu: every new merge acquires the epoch via
		// acquireEpoch, which also needs t.mu, so nothing can slip into
		// this aggregator between the snapshot and the delete.
		t.series.AppendEpoch(e, ent.agg.Snapshot())
		rolled = true
	}
	if rolled {
		t.series.Downsample(s.cfg.Retention, horizon)
	}
}

// view returns the tenant's time axis as the caller's own series: a
// copy of its rolled windows, plus every live epoch inside
// [since, until] appended as a raw window (snapshotting its
// aggregator). Live epochs outside the range are left alone, so a
// query pays only for the epochs it can see. An unknown tenant yields
// an empty series. Every read goes through here.
//
// Only the clone and the list of in-range aggregators are taken under
// the tenant lock; the snapshots (each a copy and a sort) run after it
// is released, so a read never blocks the writers' rolls. That counts
// nothing twice and drops no acked profile: under the lock each acked
// profile sits either in the series (so in the clone) or in a live
// aggregator (so in the list); an aggregator that rolls after the lock
// is released rolls into the tenant's series, not into the clone; and
// a rolled aggregator takes no further merges.
func (s *Server) view(tenantName string, since, until uint64) *tsstore.Series {
	s.mu.Lock()
	t := s.tenants[tenantName]
	s.mu.Unlock()
	if t == nil {
		return &tsstore.Series{}
	}
	type liveEpoch struct {
		epoch uint64
		agg   *profstore.Aggregator
	}
	var live []liveEpoch
	t.mu.Lock()
	out := t.series.Clone()
	for e, ent := range t.epochs {
		if since <= e && e <= until {
			live = append(live, liveEpoch{e, ent.agg})
		}
	}
	t.mu.Unlock()
	for _, l := range live {
		out.AppendEpoch(l.epoch, l.agg.Snapshot())
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
