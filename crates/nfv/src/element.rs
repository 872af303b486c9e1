//! The element abstraction and service-chain composition
//! (FastClick/Metron style, §5).

use llc_sim::addr::PhysAddr;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use trafficgen::FlowTuple;

/// Per-core processing context.
pub struct Ctx<'a> {
    /// The simulated machine.
    pub m: &'a mut Machine,
    /// The core this chain instance runs on.
    pub core: usize,
}

/// A packet as it moves through a chain.
#[derive(Debug, Clone, Copy)]
pub struct Pkt {
    /// Buffer handle.
    pub mbuf: u32,
    /// Frame start.
    pub data_pa: PhysAddr,
    /// Frame length.
    pub len: u16,
    /// FlowDirector mark, if the NIC attached one (HW offload result).
    pub mark: Option<u32>,
    /// Parsed header cache: elements parse once and share.
    pub flow: Option<FlowTuple>,
}

impl Pkt {
    /// Wraps an RX completion.
    pub fn from_completion(c: &rte::nic::RxCompletion) -> Self {
        Self {
            mbuf: c.mbuf,
            data_pa: c.data_pa,
            len: c.len,
            mark: c.mark,
            flow: None,
        }
    }

    /// The parsed 5-tuple, parsing (timed) on first use.
    ///
    /// `None` means the frame does not carry a well-formed
    /// Ethernet+IPv4+TCP prefix (truncated or malformed); elements must
    /// drop such packets as [`DropCause::Parse`], never panic.
    pub fn flow(&mut self, ctx: &mut Ctx<'_>) -> (Option<FlowTuple>, Cycles) {
        if let Some(f) = self.flow {
            return (Some(f), 0);
        }
        let (hdr, c) =
            crate::packet::parse_header(ctx.m, ctx.core, self.data_pa, usize::from(self.len));
        self.flow = hdr.map(|h| h.flow);
        (self.flow, c)
    }
}

/// Why an element dropped a packet — the software half of the drop
/// accounting (the NIC half is [`rte::nic::DropReason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The frame failed header parsing (truncated or malformed).
    Parse,
    /// No route matched the destination.
    NoRoute,
    /// A flow table was full and could not admit the flow.
    TableExhausted,
    /// Deliberate policy drop (filters, DPI verdicts).
    Policy,
}

impl std::fmt::Display for DropCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Parse => "parse failure",
            Self::NoRoute => "no route",
            Self::TableExhausted => "flow table exhausted",
            Self::Policy => "policy",
        };
        f.write_str(s)
    }
}

/// What an element decided about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Pass to the next element / transmit.
    Forward,
    /// Drop the packet, with the cause for the accounting.
    Drop(DropCause),
}

/// A packet-processing element.
pub trait Element {
    /// Processes one packet, returning the action and the cycles spent.
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles);

    /// Element name for reports.
    fn name(&self) -> &'static str;
}

/// A run-to-completion chain of elements.
pub struct ServiceChain {
    elements: Vec<Box<dyn Element>>,
}

impl std::fmt::Debug for ServiceChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.elements.iter().map(|e| e.name()).collect();
        write!(f, "ServiceChain({})", names.join(" -> "))
    }
}

impl ServiceChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self {
            elements: Vec::new(),
        }
    }

    /// Appends an element.
    pub fn push(mut self, e: Box<dyn Element>) -> Self {
        self.elements.push(e);
        self
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True for a chain with no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Runs the packet through every element, stopping on a drop.
    pub fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt) -> (Action, Cycles) {
        let mut total = 0;
        for e in &mut self.elements {
            let (action, c) = e.process(ctx, pkt);
            total += c;
            if let Action::Drop(cause) = action {
                return (Action::Drop(cause), total);
            }
        }
        (Action::Forward, total)
    }
}

impl Default for ServiceChain {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    struct CountingElement {
        calls: u64,
        action: Action,
    }

    impl Element for CountingElement {
        fn process(&mut self, ctx: &mut Ctx<'_>, _pkt: &mut Pkt) -> (Action, Cycles) {
            self.calls += 1;
            ctx.m.advance(ctx.core, 10);
            (self.action, 10)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(16 << 20))
    }

    fn pkt() -> Pkt {
        Pkt {
            mbuf: 0,
            data_pa: PhysAddr(0),
            len: 64,
            mark: None,
            flow: None,
        }
    }

    #[test]
    fn chain_runs_all_elements() {
        let mut m = machine();
        let mut chain = ServiceChain::new()
            .push(Box::new(CountingElement {
                calls: 0,
                action: Action::Forward,
            }))
            .push(Box::new(CountingElement {
                calls: 0,
                action: Action::Forward,
            }));
        assert_eq!(chain.len(), 2);
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, c) = chain.process(&mut ctx, &mut pkt());
        assert_eq!(a, Action::Forward);
        assert_eq!(c, 20);
    }

    #[test]
    fn drop_short_circuits() {
        let mut m = machine();
        let mut chain = ServiceChain::new()
            .push(Box::new(CountingElement {
                calls: 0,
                action: Action::Drop(DropCause::Policy),
            }))
            .push(Box::new(CountingElement {
                calls: 0,
                action: Action::Forward,
            }));
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (a, c) = chain.process(&mut ctx, &mut pkt());
        assert_eq!(a, Action::Drop(DropCause::Policy));
        assert_eq!(c, 10, "second element must not run");
    }

    #[test]
    fn flow_cache_parses_once() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        let mut buf = vec![0u8; 128];
        let f = trafficgen::FlowTuple::tcp(1, 2, 3, 4);
        crate::packet::encode_frame(&mut buf, &f, 128, 0.0, 0);
        m.mem_mut().write(r.pa(0), &buf);
        let mut p = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: 128,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (flow1, c1) = p.flow(&mut ctx);
        let (flow2, c2) = p.flow(&mut ctx);
        assert_eq!(flow1, Some(f));
        assert_eq!(flow2, Some(f));
        assert!(c1 > 0);
        assert_eq!(c2, 0, "cached parse is free");
    }

    #[test]
    fn flow_on_garbage_is_none_not_panic() {
        let mut m = machine();
        let r = m.mem_mut().alloc(4096, 4096).unwrap();
        m.mem_mut().write(r.pa(0), &[0xffu8; 64]);
        let mut p = Pkt {
            mbuf: 0,
            data_pa: r.pa(0),
            len: 20,
            mark: None,
            flow: None,
        };
        let mut ctx = Ctx { m: &mut m, core: 0 };
        let (flow, c) = p.flow(&mut ctx);
        assert_eq!(flow, None);
        assert!(c > 0, "failed parse still costs cycles");
    }

    #[test]
    fn debug_format_lists_elements() {
        let chain = ServiceChain::new().push(Box::new(CountingElement {
            calls: 0,
            action: Action::Forward,
        }));
        assert_eq!(format!("{chain:?}"), "ServiceChain(counting)");
        assert!(!chain.is_empty());
    }
}
