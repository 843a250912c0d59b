package hbbp

import (
	"errors"

	"hbbp/internal/cpu"
	"hbbp/internal/fleetserver"
	"hbbp/internal/fleetwire"
	"hbbp/internal/harness"
	"hbbp/internal/perffile"
	"hbbp/internal/profstore"
	"hbbp/internal/tsstore"
	"hbbp/internal/workloads"
)

// Typed sentinel errors. Errors returned by the façade wrap these, so
// callers classify failures with errors.Is without depending on
// message text or internal packages.
var (
	// ErrBadMagic reports a replay stream that is not a serialized
	// collection (perffile) at all.
	ErrBadMagic = perffile.ErrBadMagic
	// ErrTruncatedRecord reports a replay stream cut mid-record.
	ErrTruncatedRecord = perffile.ErrTruncatedRecord
	// ErrUnsupportedVersion reports a replay stream written in a format
	// version this library cannot read.
	ErrUnsupportedVersion = perffile.ErrUnsupportedVersion
	// ErrCorruptRecord reports a replay stream holding a record no
	// writer produces: an unknown record type or an implausible size.
	ErrCorruptRecord = perffile.ErrCorruptRecord
	// ErrRetireLimit reports a run aborted by the retirement guard
	// (Workload misconfiguration, runaway loops).
	ErrRetireLimit = cpu.ErrRetireLimit
	// ErrUnknownWorkload reports a workload name LookupWorkload does
	// not recognise.
	ErrUnknownWorkload = errors.New("hbbp: unknown workload")
	// ErrWorkloadBuild reports a workload that failed to build —
	// typically a calibration dry run that could not complete (e.g. a
	// runaway custom spec tripping the retirement guard). The old code
	// panicked here; the registry reports it as a classified error.
	ErrWorkloadBuild = workloads.ErrBuild
	// ErrUnknownExperiment reports an experiment name RunExperiment
	// does not recognise.
	ErrUnknownExperiment = harness.ErrUnknownExperiment
	// ErrProfileMagic reports a LoadProfile stream that is not a
	// stored profile at all.
	ErrProfileMagic = profstore.ErrBadMagic
	// ErrProfileTruncated reports a stored profile cut mid-record.
	ErrProfileTruncated = profstore.ErrTruncatedRecord
	// ErrProfileVersion reports a stored profile written in a format
	// version this library cannot read.
	ErrProfileVersion = profstore.ErrUnsupportedVersion
	// ErrFrameMagic reports a fleet-wire peer that is not speaking
	// this protocol at all.
	ErrFrameMagic = fleetwire.ErrFrameMagic
	// ErrFrameTruncated reports a fleet-wire stream cut mid-preamble
	// or mid-frame.
	ErrFrameTruncated = fleetwire.ErrFrameTruncated
	// ErrFrameCorrupt reports a fleet-wire frame whose CRC did not
	// match — line noise caught before it could reach merged state.
	ErrFrameCorrupt = fleetwire.ErrFrameCorrupt
	// ErrFrameTooLarge reports a fleet-wire frame whose declared size
	// exceeds the connection's limit, or a profile a client refused to
	// send because it cannot fit a frame even alone.
	ErrFrameTooLarge = fleetwire.ErrFrameTooLarge
	// ErrWireVersion reports a fleet-wire peer speaking a protocol
	// version this library cannot.
	ErrWireVersion = fleetwire.ErrUnsupportedVersion
	// ErrWireProtocol reports a structurally broken fleet-wire
	// message inside an intact frame.
	ErrWireProtocol = fleetwire.ErrProtocol
	// ErrOverloaded reports a profile the ingest server shed under
	// load after the client's retry budget ran out. The shed is
	// counted in the server's per-tenant drop ledger.
	ErrOverloaded = fleetserver.ErrOverloaded
	// ErrProfileRejected reports a profile the ingest server refused
	// as unloadable; not retryable.
	ErrProfileRejected = fleetserver.ErrRejected
	// ErrFleetClientClosed reports a Send on a closed fleet client.
	ErrFleetClientClosed = fleetserver.ErrClientClosed
	// ErrInjectedFault is the cause carried by every fault the chaos
	// harness ([NewFlakyConn], [NewFlakyListener]) injects, so tests
	// can tell deliberate faults from real transport failures.
	ErrInjectedFault = fleetwire.ErrInjected
	// ErrSeriesMagic reports an OpenSeries index file that is not a
	// series index at all.
	ErrSeriesMagic = tsstore.ErrBadMagic
	// ErrSeriesTruncated reports a series index cut mid-record.
	ErrSeriesTruncated = tsstore.ErrTruncatedRecord
	// ErrSeriesVersion reports a series index written in a format
	// version this library cannot read.
	ErrSeriesVersion = tsstore.ErrUnsupportedVersion
	// ErrSeriesWindowMismatch reports a series window file whose size
	// or checksum disagrees with its index entry — a torn write, a
	// stale file or a swap; re-save the series to repair.
	ErrSeriesWindowMismatch = tsstore.ErrWindowMismatch
	// ErrNotEnoughWindows reports a trend scan over a series with fewer
	// retained windows than the requested k.
	ErrNotEnoughWindows = tsstore.ErrNotEnoughWindows
)
