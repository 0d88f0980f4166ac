//! Snapshot, replay, and per-phase state hashing.
//!
//! Long compositions — Theorem 1's six phases, seed sweeps, `fastbcast
//! serve`'s warm sessions — need two things the round loop itself cannot give them:
//! **checkpointing** (stop at a phase boundary, move the engine to
//! another process or host, continue bit-identically) and a **cheap
//! cross-host differential signal** (compare two runs without shipping
//! gigabytes of buffers). This module provides both.
//!
//! ## The snapshot format
//!
//! A snapshot is a single flat byte frame, version-stamped and
//! checksummed. Because the engine's live state is already flat words —
//! per-edge congestion, per-round traces — encoding is a near-memcpy
//! walk over those vectors. Layout (all integers
//! little-endian):
//!
//! ```text
//! offset  field
//! 0       magic      u64   "FBCSNAP1"
//! 8       version    u32   SNAPSHOT_VERSION
//! 12      flags      u32   bit 0 clean; any other bit set is refused
//! 16      checksum   u64   splitmix64 fold over every byte after this field
//! 24      fingerprint u64  Graph::fingerprint of the graph the state is keyed to
//! 32      n, m, arcs u64×3 graph shape (restore-time size validation)
//! 56      state_hash u64   state_hash() at encode time (restore re-verifies)
//! 64      body             engine payload
//! ```
//!
//! The engine payload is two length-prefixed `u64` vectors, the last
//! phase's per-edge congestion row and its trace: the only buffers whose
//! contents a phase boundary keeps, and the two
//! [`crate::Session::state_hash`] signs. The frame ends where the trace
//! does. (Version 4 also recorded the cached shard-plan key and the six
//! slab and arena high-water marks, version 3 six per-arc and per-node
//! buffers besides, version 1 two bit-sliced meter planes, and a version 2
//! frame could record the slab high-water marks of a 64-lane phase; each
//! is [`SnapshotError::BadVersion`].) **Not captured** (and why):
//!
//! * **the round loop's scratch buffers** — inbox occupancy, staging
//!   mask, per-arc traffic counters, and the broadcast plane's stage
//!   bytes, presence words and per-node counters. A completed phase
//!   leaves five of them zero ("Zeroed by breadcrumb", `session` module
//!   docs), a failed one leaves them to the next phase's scrub, and every
//!   plane fold rebuilds the presence words before anyone reads them. So
//!   no phase reads what an earlier one left there, and a restore starts
//!   them zero, sized as a fresh session sizes them;
//! * **slab and arena contents and sizes** — between phases only
//!   occupancy-gated slots are ever read and the occupancy bitset is
//!   zero, so the words are unreachable by construction; a restored
//!   session grows them on first use, as a fresh one does;
//! * **per-phase scratch and the [`congest_graph::ShardPlan`]** (shard
//!   meters, worklists, the active-node list, fault buffers, the plan
//!   cache) — rebuilt or re-derived at the start of every run;
//! * **mid-phase node state** — protocol cells are arbitrary user types;
//!   snapshots are a *phase-boundary* operation by design.
//!
//! A frame is what a continuation reads, not a cache: nothing in it makes
//! the restored session warm, and nothing a warm session holds changes
//! what it computes.
//!
//! A frame taken after a failed phase (a round-limit error) has the clean
//! flag unset, restores the same way, and continues like the session it
//! was taken from: that session's next phase scrubs what the failure left
//! behind, the restored one starts from zero.
//!
//! ## Restore validation
//!
//! [`crate::Session::restore`] refuses to marry a payload to the wrong graph:
//! magic/version and the flag bits are checked first, then the checksum,
//! then the graph fingerprint and the `n`/`m`/`arcs` shape, then the
//! per-edge row's length (a length prefix is checked against the bytes
//! left before anything is allocated: the checksum is no authenticator)
//! and that the frame ends with the trace, and finally the recomputed
//! [`crate::Session::state_hash`] must equal the recorded one — a restored
//! engine is bit-identical or it is an error, never silently wrong. The
//! clean flag is part of the hash, so flipping it alone is a
//! [`SnapshotError::StateHashMismatch`]. A frame never carries its graph:
//! the caller supplies the topology, and the fingerprint decides whether
//! the two belong together. Flag bits 1 and 2 once marked an embedded
//! graph and a dynamic-topology section (DESIGN.md §10); a frame that sets
//! either, or any other unknown bit, is [`SnapshotError::WrongKind`].
//!
//! ## State hashing
//!
//! [`crate::Session::state_hash`] folds the graph's arc and edge counts,
//! the clean flag, and every **nonzero** word of the per-edge row and
//! the trace (tagged by buffer and index) through the same splitmix64
//! finalizer the graph fingerprint uses: what the frame carries, clean or
//! dirty, in O(edges + rounds). Folding only nonzero words makes the hash
//! invariant across everything that must not matter: pool widths, shard
//! counts, and a reused vs a fresh engine. Recorded into
//! [`crate::PhaseLog`] via [`crate::PhaseLog::record_hashed`], two hosts
//! can diff a long composition phase by phase with eight bytes per
//! phase.
//!
//! ## Example
//!
//! Snapshot after one phase, restore into a second session, and watch
//! both continue in lockstep:
//!
//! ```
//! use congest_graph::generators::complete;
//! use congest_sim::leader::FloodMax;
//! use congest_sim::{EngineConfig, Session};
//!
//! let g = complete(8);
//! let phase = |k: u64| EngineConfig::with_seed(k);
//! let mut original = Session::new(&g);
//! original.run(|v, _| FloodMax::new(v), phase(1)).unwrap();
//!
//! // Checkpoint at the phase boundary and restore into a fresh engine.
//! let bytes = original.snapshot();
//! let mut restored = Session::restore(&g, &bytes).unwrap();
//! assert_eq!(original.state_hash(), restored.state_hash());
//!
//! // Both sessions continue bit-identically.
//! let a = original.run(|v, _| FloodMax::new(v), phase(2)).unwrap().take_outputs();
//! let b = restored.run(|v, _| FloodMax::new(v), phase(2)).unwrap().take_outputs();
//! assert_eq!(a, b);
//! assert_eq!(original.state_hash(), restored.state_hash());
//! ```

use crate::rng::mix64;
use congest_graph::Graph;
use std::fmt;

/// First 8 bytes of every snapshot: `b"FBCSNAP1"` read as a
/// little-endian `u64`.
pub const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"FBCSNAP1");

/// Format version written by this build; [`crate::Session::restore`] rejects
/// any other value.
///
/// [`crate::Session::restore`]: crate::Session::restore
pub const SNAPSHOT_VERSION: u32 = 5;

pub(crate) const FLAG_CLEAN: u32 = 1;

/// Fixed header size in bytes; the body starts here.
pub(crate) const HEADER_BYTES: usize = 64;

/// Why a snapshot frame was rejected. Every variant is a *refusal to
/// restore*: the engine is never left in a partially-restored state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The frame does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The frame's version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The frame ended before a declared field.
    Truncated,
    /// The stored checksum does not match the frame contents.
    Checksum,
    /// The frame is keyed to a different graph than the restore target.
    FingerprintMismatch { expected: u64, found: u64 },
    /// The frame sets a flag bit this build does not know: a frame kind
    /// it cannot restore.
    WrongKind,
    /// A decoded buffer length disagrees with the recorded graph shape.
    SizeMismatch(&'static str),
    /// The restored state's recomputed hash differs from the recorded
    /// one — the frame is internally inconsistent.
    StateHashMismatch { expected: u64, found: u64 },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot frame (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot frame is truncated"),
            SnapshotError::Checksum => write!(f, "snapshot checksum mismatch (corrupt frame)"),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot is keyed to graph {found:#018x}, not {expected:#018x}"
            ),
            SnapshotError::WrongKind => {
                write!(f, "snapshot kind does not match the restore target")
            }
            SnapshotError::SizeMismatch(what) => {
                write!(f, "snapshot buffer `{what}` disagrees with the graph shape")
            }
            SnapshotError::StateHashMismatch { expected, found } => write!(
                f,
                "restored state hashes to {found:#018x}, frame recorded {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The decoded fixed header of a snapshot frame — everything a tool
/// needs to route, validate, or display a checkpoint without decoding
/// the payload. Obtain one with [`peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version of the frame.
    pub version: u32,
    /// Whether the captured state's last phase completed (unset after a
    /// round-limit error or a panic in a node program).
    pub clean: bool,
    /// [`congest_graph::Graph::fingerprint`] of the keyed graph.
    pub fingerprint: u64,
    /// Node count of the keyed graph.
    pub n: u64,
    /// Undirected edge count of the keyed graph.
    pub m: u64,
    /// Directed arc count of the keyed graph.
    pub arcs: u64,
    /// [`crate::Session::state_hash`] at encode time.
    pub state_hash: u64,
}

/// Decode and fully validate a frame's fixed header (magic, version,
/// length, checksum) without touching the payload.
pub fn peek(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    open(bytes).map(|(h, _)| h)
}

/// The frame checksum, `checksum(&frame[24..])` at bytes 16..24: a
/// splitmix64 fold, 8 bytes at a time (zero-padded tail), each chunk
/// salted by its position. It catches accidents, not adversaries — anyone
/// can recompute it, so restore checks every header field it acts on.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = mix64(0xC0DE_C4EC ^ bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for (i, c) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_add(mix64(w ^ mix64(i as u64)));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut pad = [0u8; 8];
        pad[..rest.len()].copy_from_slice(rest);
        h = h.wrapping_add(mix64(
            u64::from_le_bytes(pad) ^ mix64(bytes.len() as u64 / 8),
        ));
    }
    mix64(h)
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Length-prefixed `u64` slice.
pub(crate) fn put_u64s(out: &mut Vec<u8>, ws: &[u64]) {
    put_u64(out, ws.len() as u64);
    for &w in ws {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// A bounds-checked cursor over a frame body; every read can fail with
/// [`SnapshotError::Truncated`], never panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed `u64` slice. The length is checked against the
    /// bytes left before anything is allocated (a corrupt frame must not
    /// become an OOM).
    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.u64()?;
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_mul(8))
            .ok_or(SnapshotError::Truncated)?;
        Ok(self
            .take(bytes)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Whether every byte of the frame has been read.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Header fields the encoder stamps (checksum is patched by [`finish`]).
pub(crate) struct Frame {
    pub(crate) flags: u32,
    pub(crate) fingerprint: u64,
    pub(crate) n: u64,
    pub(crate) m: u64,
    pub(crate) arcs: u64,
    pub(crate) state_hash: u64,
}

impl Frame {
    /// The header of a frame taken now of `state` on `graph`.
    pub(crate) fn of(graph: &Graph, state: &crate::session::SessionState) -> Frame {
        Frame {
            flags: if state.clean { FLAG_CLEAN } else { 0 },
            fingerprint: graph.fingerprint(),
            n: graph.n() as u64,
            m: graph.m() as u64,
            arcs: graph.num_arcs() as u64,
            state_hash: state.state_hash(),
        }
    }
}

/// Write the fixed header with a zero checksum; body bytes follow.
pub(crate) fn begin(out: &mut Vec<u8>, f: &Frame) {
    put_u64(out, SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&f.flags.to_le_bytes());
    put_u64(out, 0); // checksum placeholder
    put_u64(out, f.fingerprint);
    put_u64(out, f.n);
    put_u64(out, f.m);
    put_u64(out, f.arcs);
    put_u64(out, f.state_hash);
    debug_assert_eq!(out.len(), HEADER_BYTES);
}

/// Compute the checksum over everything after the checksum field and
/// patch it into the header. Must be the encoder's last step.
pub(crate) fn finish(out: &mut [u8]) {
    let sum = checksum(&out[24..]);
    out[16..24].copy_from_slice(&sum.to_le_bytes());
}

/// Validate magic, version, length, and checksum; return the decoded
/// header plus a reader positioned at the body.
pub(crate) fn open(bytes: &[u8]) -> Result<(SnapshotHeader, Reader<'_>), SnapshotError> {
    if bytes.len() < HEADER_BYTES {
        if bytes.len() >= 8 && u64::from_le_bytes(bytes[..8].try_into().unwrap()) != SNAPSHOT_MAGIC
        {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated);
    }
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.u64()? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let flags = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
    // The flags sit before the checksummed region: a bit this build does
    // not know is a frame kind it cannot restore.
    if flags & !FLAG_CLEAN != 0 {
        return Err(SnapshotError::WrongKind);
    }
    let recorded = r.u64()?;
    if checksum(&bytes[24..]) != recorded {
        return Err(SnapshotError::Checksum);
    }
    let fingerprint = r.u64()?;
    let n = r.u64()?;
    let m = r.u64()?;
    let arcs = r.u64()?;
    let state_hash = r.u64()?;
    let header = SnapshotHeader {
        version,
        clean: flags & FLAG_CLEAN != 0,
        fingerprint,
        n,
        m,
        arcs,
        state_hash,
    };
    Ok((header, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_position_sensitive() {
        let a = checksum(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let b = checksum(&[2, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_ne!(a, b);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn reader_never_reads_past_the_end() {
        let mut out = Vec::new();
        put_u64s(&mut out, &[1, 2, 3]);
        let mut r = Reader { buf: &out, pos: 0 };
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
        // A declared length far beyond the buffer is refused before any
        // allocation happens.
        let mut bogus = Vec::new();
        put_u64(&mut bogus, u64::MAX);
        let mut r = Reader {
            buf: &bogus,
            pos: 0,
        };
        assert_eq!(r.u64s(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn header_round_trips() {
        let f = Frame {
            flags: FLAG_CLEAN,
            fingerprint: 0xABCD,
            n: 10,
            m: 20,
            arcs: 40,
            state_hash: 0x5EED,
        };
        let mut out = Vec::new();
        begin(&mut out, &f);
        put_u64(&mut out, 99); // body
        finish(&mut out);
        let h = peek(&out).unwrap();
        assert_eq!(h.version, SNAPSHOT_VERSION);
        assert!(h.clean);
        assert_eq!(h.fingerprint, 0xABCD);
        assert_eq!((h.n, h.m, h.arcs), (10, 20, 40));
        assert_eq!(h.state_hash, 0x5EED);

        // Any flipped body byte fails the checksum.
        let mut bad = out.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(peek(&bad), Err(SnapshotError::Checksum));
        // A flipped magic byte is a different refusal.
        let mut bad = out.clone();
        bad[0] ^= 1;
        assert_eq!(peek(&bad), Err(SnapshotError::BadMagic));
        // Truncation is caught.
        assert_eq!(peek(&out[..40]), Err(SnapshotError::Truncated));
    }
}
