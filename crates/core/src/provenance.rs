//! The causal provenance engine's opt-in switches.
//!
//! PR 6's observatory can say *why class* a stale serve happened (a
//! [`mp2p_trace::BlameCause`]); it cannot reconstruct the concrete chain
//! of frames behind one incident. Provenance tracing adds the missing
//! layer: every transmitted frame already carries a deterministic
//! identity `(origin, seq)` — floods and unicasts draw from the same
//! per-node monotonic counter — and with provenance on the world journals
//! that identity's full life cycle as these records:
//!
//! * [`mp2p_trace::TraceEvent::FrameBorn`] — a frame's first transmission
//!   (hop count 0), with its message class, unicast destination and the
//!   propagated `(item, version)` when it carries an update,
//!   invalidation or send-new payload.
//! * [`mp2p_trace::TraceEvent::FrameHop`] — each relay retransmission.
//! * [`mp2p_trace::TraceEvent::FrameFate`] — where the frame's life
//!   ended at a node: delivered, suppressed as a duplicate, or dropped
//!   with the injecting fault's cause
//!   ([`mp2p_trace::FrameFateKind`]).
//! * [`mp2p_trace::TraceEvent::CopyLineage`] — a cached copy's lineage:
//!   which frame carried the installed version here and over how many
//!   hops.
//!
//! With provenance off (the default) the world emits none of these,
//! draws no randomness and queues no events: journal bytes are
//! byte-identical to a build without this module (pinned by
//! `tests/provenance_engine.rs`). Frame sequence numbers exist either
//! way — they are plain counters the flood-dedup machinery already
//! maintained — so switching provenance on changes *observations only*,
//! never protocol behaviour.

/// Opt-in switches for frame-level provenance tracing. The default is
/// everything off, which is the byte-identity-preserving configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvenanceConfig {
    /// Journal every frame's birth, relay hops and terminal fate
    /// (`FrameBorn` / `FrameHop` / `FrameFate`).
    pub frames: bool,
    /// Journal a `CopyLineage` record for every cached copy installed or
    /// refreshed from a delivered message. Requires [`frames`]: a lineage
    /// record names a carrying frame that must itself be journalled.
    ///
    /// [`frames`]: ProvenanceConfig::frames
    pub lineage: bool,
}

impl ProvenanceConfig {
    /// Everything off (the default).
    pub fn off() -> Self {
        ProvenanceConfig::default()
    }

    /// Frame life cycles and copy lineage both on.
    pub fn full() -> Self {
        ProvenanceConfig {
            frames: true,
            lineage: true,
        }
    }

    /// Whether any provenance feature is on.
    pub fn enabled(&self) -> bool {
        self.frames || self.lineage
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics when lineage is requested without frame tracing (the
    /// lineage records would dangle: they reference frames the journal
    /// never introduces).
    pub fn validate(&self) {
        assert!(
            self.frames || !self.lineage,
            "provenance lineage requires frame tracing (lineage records reference frames)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_valid() {
        let cfg = ProvenanceConfig::off();
        assert!(!cfg.enabled());
        cfg.validate();
        assert!(ProvenanceConfig::full().enabled());
        ProvenanceConfig::full().validate();
    }

    #[test]
    #[should_panic(expected = "lineage requires frame tracing")]
    fn lineage_without_frames_is_rejected() {
        ProvenanceConfig {
            frames: false,
            lineage: true,
        }
        .validate();
    }
}
