package hbbp

import (
	"context"
	"net"

	"hbbp/internal/fleetserver"
	"hbbp/internal/fleetwire"
)

// The fleet ingest layer: fleet.go turns runs into mergeable stored
// profiles; this file moves them across machines. Serve runs an
// ingest server that merges profiles into per-tenant/epoch
// aggregators over a length-prefixed, CRC-checked wire protocol; Dial
// returns the retrying client agents deliver with. The tier's
// contract is exact accounting under failure: a profile is merged
// exactly once if and only if its sender was told so, and every
// refusal — overload shed, rejection, corrupt frame — lands in a
// counter (see FleetServerStats). The fault-injection surface
// (Faults, NewFlakyConn, NewFlakyListener) is exported so callers can
// rehearse their own failure handling the way this package's chaos
// suite does.

// FleetServer ingests stored profiles over the wire and merges them
// into per-tenant, per-epoch aggregators with exact drop accounting.
// Construct with [Serve].
type FleetServer = fleetserver.Server

// FleetServerConfig parameterizes [Serve]. The zero value is usable.
type FleetServerConfig = fleetserver.Config

// FleetServerStats is a point-in-time view of a server's accounting:
// connection counts plus one ledger per tenant.
type FleetServerStats = fleetserver.Stats

// FleetTenantStats is one tenant's ingest ledger — merges, duplicate
// re-sends, and every class of refused profile, each counted exactly
// where it happened.
type FleetTenantStats = fleetserver.TenantStats

// FleetClient delivers stored profiles to a [FleetServer] with
// retries, reconnection and exactly-once delivery. Every send is one
// batch exchange on the wire (protocol version 2): a batch frame of
// profiles answered by one verdict per profile.
// [fleetserver.Client.Send] is a batch of one;
// [fleetserver.Client.SendBatch] splits a batch into as many frames as
// the frame size limit needs, and refuses a profile too large for any
// frame with [ErrFrameTooLarge] without retrying. Construct with
// [Dial].
type FleetClient = fleetserver.Client

// FleetBatchItem is one profile in a [FleetClient.SendBatchBytes]
// batch: an already-serialized stored profile bound for one epoch.
type FleetBatchItem = fleetserver.BatchItem

// FleetClientConfig parameterizes [Dial]. Tenant and Agent are
// required; Agent is the stable identity the server's exactly-once
// ledger is keyed by.
type FleetClientConfig = fleetserver.ClientConfig

// FleetClientStats counts what one client delivered and observed.
type FleetClientStats = fleetserver.ClientStats

// Faults configures injected transport misbehavior — partial writes,
// bit corruption, resets, stalls, deterministic cuts — for
// [NewFlakyConn] and [NewFlakyListener]. The zero value injects
// nothing.
type Faults = fleetwire.Faults

// Serve starts a fleet ingest server on ln and returns immediately.
// The server owns the listener; stop it with
// [FleetServer.Shutdown] (drains admitted profiles) or
// [FleetServer.Close].
func Serve(ln net.Listener, cfg FleetServerConfig) *FleetServer {
	return fleetserver.Serve(ln, cfg)
}

// Dial connects a fleet agent to a [FleetServer], retrying transient
// failures under the client's backoff policy. The returned client
// re-dials transparently when its connection drops and resumes its
// delivery ledger from the server's handshake, so a profile whose ack
// was lost to a reset is never merged twice. Failures classify under
// errors.Is against [ErrOverloaded], [ErrProfileRejected],
// [ErrFleetClientClosed] and the wire sentinels.
func Dial(ctx context.Context, addr string, cfg FleetClientConfig) (*FleetClient, error) {
	return fleetserver.Dial(ctx, addr, cfg)
}

// NewFlakyConn wraps conn with injected faults — the transport-chaos
// harness used by this package's own tests, exported so integrations
// can rehearse failure handling against real misbehavior instead of
// mocks. Injected failures carry [ErrInjectedFault] in their chain.
func NewFlakyConn(conn net.Conn, f Faults) net.Conn {
	return fleetwire.NewFlakyConn(conn, f)
}

// NewFlakyListener wraps ln so every accepted connection misbehaves
// with a distinct deterministic seed derived from f.Seed — the
// server-side mirror of [NewFlakyConn].
func NewFlakyListener(ln net.Listener, f Faults) net.Listener {
	return fleetwire.NewFlakyListener(ln, f)
}
