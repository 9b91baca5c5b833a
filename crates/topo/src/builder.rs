//! Graph-level topology construction.

use core::fmt;
use std::collections::HashMap;

use fancy_net::Fnv1a;
use fancy_sim::{LinkConfig, SimDuration};

/// Index of a switch in a [`Topology`] (dense, assigned in creation order).
pub type SwitchIdx = usize;
/// Index of an edge in a [`Topology`] (dense, assigned in creation order).
pub type EdgeIdx = usize;

/// Why a topology could not be built or routed.
///
/// Every variant carries the identifiers (switch/edge indices and names)
/// needed to point at the exact offending element — the same philosophy as
/// `fancy-apps`' `ScenarioError::Link`, extended to switches, routes and
/// ECMP path groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoError {
    /// Two switches were declared with the same name.
    DuplicateSwitch {
        /// The colliding name.
        name: String,
    },
    /// A link references a switch index that was never declared.
    UnknownSwitch {
        /// The out-of-range index.
        switch: SwitchIdx,
    },
    /// A link connects a switch to itself.
    SelfLoop {
        /// The switch with the self-loop.
        switch: SwitchIdx,
        /// Its name.
        name: String,
    },
    /// A link parameter is invalid (zero bandwidth, zero delay, ...).
    BadLink {
        /// Edge index (creation order).
        edge: EdgeIdx,
        /// Edge name ("a↔b").
        name: String,
        /// What is wrong.
        reason: &'static str,
    },
    /// The topology has no switches.
    Empty,
    /// Route computation found no path between two switches.
    Unreachable {
        /// Source switch index.
        from: SwitchIdx,
        /// Destination switch index.
        to: SwitchIdx,
    },
    /// A backup-path (SPIDER) computation found no loop-free alternate
    /// for a destination behind the protected edge.
    NoBackupPath {
        /// The protecting switch.
        from: SwitchIdx,
        /// The destination with no loop-free alternate.
        to: SwitchIdx,
        /// The protected edge.
        edge: EdgeIdx,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::DuplicateSwitch { name } => write!(f, "duplicate switch name {name:?}"),
            TopoError::UnknownSwitch { switch } => write!(f, "unknown switch index {switch}"),
            TopoError::SelfLoop { switch, name } => {
                write!(f, "self-loop on switch {switch} ({name})")
            }
            TopoError::BadLink { edge, name, reason } => {
                write!(f, "link {edge} ({name}): {reason}")
            }
            TopoError::Empty => write!(f, "topology has no switches"),
            TopoError::Unreachable { from, to } => {
                write!(f, "no path from switch {from} to switch {to}")
            }
            TopoError::NoBackupPath { from, to, edge } => {
                write!(
                    f,
                    "no loop-free alternate at switch {from} for destination {to} protecting edge {edge}"
                )
            }
        }
    }
}

impl std::error::Error for TopoError {}

/// Typed link parameters: bandwidth and one-way propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

impl LinkSpec {
    /// A new link class.
    pub fn new(bandwidth_bps: u64, delay: SimDuration) -> Self {
        LinkSpec {
            bandwidth_bps,
            delay,
        }
    }

    /// Convert to the simulator's [`LinkConfig`] (TM queue sized by the
    /// simulator's 50 ms provisioning rule).
    pub fn to_link_config(self) -> LinkConfig {
        LinkConfig::new(self.bandwidth_bps, self.delay)
    }
}

/// A declared switch.
#[derive(Debug, Clone)]
pub struct SwitchDef {
    /// Operator-facing name (unique within the topology).
    pub name: String,
}

/// A declared (undirected) edge between two switches.
#[derive(Debug, Clone)]
pub struct EdgeDef {
    /// First endpoint (creation-order index).
    pub a: SwitchIdx,
    /// Second endpoint.
    pub b: SwitchIdx,
    /// Link parameters.
    pub spec: LinkSpec,
    /// Name, derived from the endpoint names ("a↔b").
    pub name: String,
}

/// Builder for a [`Topology`]: declare switches, then links between them.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    switches: Vec<SwitchDef>,
    edges: Vec<EdgeDef>,
    names: HashMap<String, SwitchIdx>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Declare a switch; returns its dense index. Fails on duplicate names.
    pub fn switch(&mut self, name: &str) -> Result<SwitchIdx, TopoError> {
        if self.names.contains_key(name) {
            return Err(TopoError::DuplicateSwitch {
                name: name.to_owned(),
            });
        }
        let idx = self.switches.len();
        self.names.insert(name.to_owned(), idx);
        self.switches.push(SwitchDef {
            name: name.to_owned(),
        });
        Ok(idx)
    }

    /// Declare an undirected link between two switches; returns its edge
    /// index. Parallel links are allowed (they form an ECMP group).
    pub fn link(
        &mut self,
        a: SwitchIdx,
        b: SwitchIdx,
        spec: LinkSpec,
    ) -> Result<EdgeIdx, TopoError> {
        for &s in &[a, b] {
            if s >= self.switches.len() {
                return Err(TopoError::UnknownSwitch { switch: s });
            }
        }
        let name = format!("{}↔{}", self.switches[a].name, self.switches[b].name);
        if a == b {
            return Err(TopoError::SelfLoop { switch: a, name });
        }
        let edge = self.edges.len();
        if spec.bandwidth_bps == 0 {
            return Err(TopoError::BadLink {
                edge,
                name,
                reason: "bandwidth must be > 0",
            });
        }
        self.edges.push(EdgeDef { a, b, spec, name });
        Ok(edge)
    }

    /// True if some edge already joins `a` and `b` (order-insensitive).
    /// Used by generators to de-duplicate chords.
    pub fn has_link(&self, a: SwitchIdx, b: SwitchIdx) -> bool {
        self.edges
            .iter()
            .any(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
    }

    /// Finish the build. Fails on an empty topology; connectivity is
    /// checked later, by [`crate::Routes::compute`], which can name the
    /// exact unreachable pair.
    pub fn build(self) -> Result<Topology, TopoError> {
        if self.switches.is_empty() {
            return Err(TopoError::Empty);
        }
        // Adjacency: per switch, the edges touching it, in edge order
        // (deterministic: creation order).
        let mut adjacency = vec![Vec::new(); self.switches.len()];
        for (e, edge) in self.edges.iter().enumerate() {
            adjacency[edge.a].push(e);
            adjacency[edge.b].push(e);
        }
        Ok(Topology {
            switches: self.switches,
            edges: self.edges,
            names: self.names,
            adjacency,
        })
    }
}

/// An immutable switch-level graph.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Switches, indexed by [`SwitchIdx`].
    pub switches: Vec<SwitchDef>,
    /// Undirected edges, indexed by [`EdgeIdx`].
    pub edges: Vec<EdgeDef>,
    names: HashMap<String, SwitchIdx>,
    adjacency: Vec<Vec<EdgeIdx>>,
}

impl Topology {
    /// Number of switches.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True when the topology has no switches (never, post-build).
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// Look a switch up by name.
    pub fn index_of(&self, name: &str) -> Option<SwitchIdx> {
        self.names.get(name).copied()
    }

    /// Edges incident to `switch`, in edge-index order.
    pub fn incident(&self, switch: SwitchIdx) -> &[EdgeIdx] {
        &self.adjacency[switch]
    }

    /// The endpoint of `edge` that is not `switch`.
    ///
    /// # Panics
    /// Panics if `switch` is not an endpoint of `edge`.
    pub fn other_end(&self, edge: EdgeIdx, switch: SwitchIdx) -> SwitchIdx {
        let e = &self.edges[edge];
        if e.a == switch {
            e.b
        } else {
            assert_eq!(e.b, switch, "switch {switch} is not on edge {edge}");
            e.a
        }
    }

    /// First edge between `a` and `b`, if any.
    pub fn edge_between(&self, a: SwitchIdx, b: SwitchIdx) -> Option<EdgeIdx> {
        self.adjacency[a]
            .iter()
            .copied()
            .find(|&e| self.other_end(e, a) == b)
    }

    /// Edge lookup by name ("a↔b", as produced by the builder).
    pub fn edge_by_name(&self, name: &str) -> Option<EdgeIdx> {
        self.edges.iter().position(|e| e.name == name)
    }

    /// A stable 64-bit fingerprint of the whole graph: switch names, edge
    /// endpoints and link parameters. Used to salt the bench result cache
    /// so sweeps over different topologies can never collide, and by the
    /// determinism tests to witness bit-identical route computation.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical byte rendering.
        let mut h = Fnv1a::default();
        h.write(&(self.switches.len() as u64).to_le_bytes());
        for s in &self.switches {
            h.write(s.name.as_bytes());
            h.write(&[0xFF]);
        }
        h.write(&(self.edges.len() as u64).to_le_bytes());
        for e in &self.edges {
            h.write(&(e.a as u64).to_le_bytes());
            h.write(&(e.b as u64).to_le_bytes());
            h.write(&e.spec.bandwidth_bps.to_le_bytes());
            h.write(&e.spec.delay.as_nanos().to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec::new(100_000_000_000, SimDuration::from_millis(1))
    }

    #[test]
    fn builder_assigns_dense_indices() {
        let mut b = TopologyBuilder::new();
        let x = b.switch("x").unwrap();
        let y = b.switch("y").unwrap();
        assert_eq!((x, y), (0, 1));
        let e = b.link(x, y, spec()).unwrap();
        assert_eq!(e, 0);
        let t = b.build().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.index_of("y"), Some(1));
        assert_eq!(t.edge_between(0, 1), Some(0));
        assert_eq!(t.other_end(0, 0), 1);
        assert_eq!(t.edge_by_name("x↔y"), Some(0));
    }

    #[test]
    fn duplicate_switch_name_is_an_error() {
        let mut b = TopologyBuilder::new();
        b.switch("x").unwrap();
        assert_eq!(
            b.switch("x"),
            Err(TopoError::DuplicateSwitch {
                name: "x".to_owned()
            })
        );
    }

    #[test]
    fn self_loop_and_bad_link_are_errors() {
        let mut b = TopologyBuilder::new();
        let x = b.switch("x").unwrap();
        let y = b.switch("y").unwrap();
        assert!(matches!(
            b.link(x, x, spec()),
            Err(TopoError::SelfLoop { switch: 0, .. })
        ));
        assert!(matches!(
            b.link(x, y, LinkSpec::new(0, SimDuration::from_millis(1))),
            Err(TopoError::BadLink {
                reason: "bandwidth must be > 0",
                ..
            })
        ));
        assert!(matches!(
            b.link(x, 7, spec()),
            Err(TopoError::UnknownSwitch { switch: 7 })
        ));
    }

    #[test]
    fn empty_topology_is_an_error() {
        assert_eq!(
            TopologyBuilder::new().build().map(|_| ()),
            Err(TopoError::Empty)
        );
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let build = |delay_ms: u64| {
            let mut b = TopologyBuilder::new();
            let x = b.switch("x").unwrap();
            let y = b.switch("y").unwrap();
            b.link(
                x,
                y,
                LinkSpec::new(1_000, SimDuration::from_millis(delay_ms)),
            )
            .unwrap();
            b.build().unwrap()
        };
        assert_eq!(build(5).fingerprint(), build(5).fingerprint());
        assert_ne!(build(5).fingerprint(), build(6).fingerprint());
    }
}
