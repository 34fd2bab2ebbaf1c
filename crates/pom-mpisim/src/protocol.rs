//! MPI point-to-point protocol semantics.

/// The two MPI point-to-point transfer protocols the paper distinguishes
/// (§3.1): they set the oscillator model's `β` factor and, here, the
/// actual blocking semantics in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MpiProtocol {
    /// Eager: the payload is shipped immediately into a receiver-side
    /// buffer; the send completes locally. Dependencies point one way
    /// (receiver waits for sender). Model `β = 1`.
    #[default]
    Eager,
    /// Rendezvous: the transfer starts only when the matching receive is
    /// posted; the *sender* also blocks until then. Dependencies couple
    /// both directions. Model `β = 2`.
    Rendezvous,
}

impl MpiProtocol {
    /// The oscillator-model coupling factor `β` this protocol induces.
    pub fn beta(self) -> f64 {
        match self {
            MpiProtocol::Eager => 1.0,
            MpiProtocol::Rendezvous => 2.0,
        }
    }

    /// Name for tables.
    pub fn name(self) -> &'static str {
        match self {
            MpiProtocol::Eager => "eager",
            MpiProtocol::Rendezvous => "rendezvous",
        }
    }
}

/// Identity of one point-to-point message instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MsgKey {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Iteration index the message belongs to.
    pub iter: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_matches_paper() {
        assert_eq!(MpiProtocol::Eager.beta(), 1.0);
        assert_eq!(MpiProtocol::Rendezvous.beta(), 2.0);
    }

    #[test]
    fn msg_key_identity() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(MsgKey {
            src: 1,
            dst: 2,
            iter: 3,
        });
        assert!(set.contains(&MsgKey {
            src: 1,
            dst: 2,
            iter: 3
        }));
        assert!(!set.contains(&MsgKey {
            src: 2,
            dst: 1,
            iter: 3
        }));
    }
}
