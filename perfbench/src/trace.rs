//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span
//! (name, start, end, parent, request id). A traced call also takes the
//! deltas of the allocation counter and of `crypto::ops`' AES-block and
//! key-expansion counters, so work is counted where it happens. Spans stay
//! in memory and are written out once the run ends. A disabled tracer
//! calls straight through.

use crate::alloc::allocations;
use crate::clock;
use colibri::crypto::ops::{aes_block_ops, key_expansions};
use std::io::Write;

/// Hop slots per layer; router spans carry the hop index, other layers use 0.
pub const MAX_HOPS: usize = 16;

/// A layer boundary the benchmark can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One workload step (a batch or a control operation): the root span.
    Step,
    /// `Gateway::process_into` over a batch of packets.
    Gateway,
    /// `Gateway::install`.
    GatewayInstall,
    /// `Gateway::remove`.
    GatewayRemove,
    /// `Qdisc::enqueue` over one tick's best-effort arrivals.
    QdiscEnqueue,
    /// `Qdisc::service`.
    QdiscService,
    /// `BorderRouter::process_batch` at one hop.
    Router,
    /// `topology::find_paths`.
    FindPaths,
    /// `ctrl::setup_segr`.
    SetupSegr,
    /// `ctrl::setup_eer`.
    SetupEer,
    /// `ctrl::renew_eer`.
    RenewEer,
    /// `ctrl::renew_segr` followed by `ctrl::activate_segr`.
    RenewSegr,
    /// `CServ::gc` over every AS.
    Gc,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 13] = [
        Layer::Step,
        Layer::Gateway,
        Layer::GatewayInstall,
        Layer::GatewayRemove,
        Layer::QdiscEnqueue,
        Layer::QdiscService,
        Layer::Router,
        Layer::FindPaths,
        Layer::SetupSegr,
        Layer::SetupEer,
        Layer::RenewEer,
        Layer::RenewSegr,
        Layer::Gc,
    ];

    /// The span name: the module the call enters, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "bench.step",
            Layer::Gateway => "dataplane::gateway.process_into",
            Layer::GatewayInstall => "dataplane::gateway.install",
            Layer::GatewayRemove => "dataplane::gateway.remove",
            Layer::QdiscEnqueue => "qdisc.enqueue",
            Layer::QdiscService => "qdisc.service",
            Layer::Router => "dataplane::router.process_batch",
            Layer::FindPaths => "topology.find_paths",
            Layer::SetupSegr => "ctrl.setup_segr",
            Layer::SetupEer => "ctrl.setup_eer",
            Layer::RenewEer => "ctrl.renew_eer",
            Layer::RenewSegr => "ctrl.renew_segr",
            Layer::Gc => "ctrl.gc",
        }
    }

    fn slot(self, hop: usize) -> usize {
        self as usize * MAX_HOPS + hop.min(MAX_HOPS - 1)
    }
}

/// Work accumulated by the spans of one (layer, hop).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Spans recorded.
    pub calls: u64,
    /// Items (packets, frames, operations) the spans covered.
    pub items: u64,
    /// Total span time.
    pub ns: u64,
    /// Heap allocations inside the spans.
    pub allocs: u64,
    /// AES block operations inside the spans.
    pub aes_blocks: u64,
    /// AES key expansions inside the spans.
    pub key_expansions: u64,
}

impl Work {
    fn add(&mut self, o: &Work) {
        self.calls += o.calls;
        self.items += o.items;
        self.ns += o.ns;
        self.allocs += o.allocs;
        self.aes_blocks += o.aes_blocks;
        self.key_expansions += o.key_expansions;
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    req: u64,
    parent: u32,
    layer: Layer,
    hop: u8,
}

const NO_PARENT: u32 = u32::MAX;

/// An open span, closed with [`Tracer::close`].
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder and work counter.
pub struct Tracer {
    enabled: bool,
    origin: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
    work: Vec<Work>,
    window: Option<Vec<Work>>,
    phase: Option<(u64, u64)>,
    idle_ns: u64,
}

/// Self time per layer over a traced phase.
#[derive(Debug, Clone)]
pub struct SelfTimes {
    /// CPU time of the traced phase.
    pub phase_ns: u64,
    /// Self time per layer (root `Step` spans included).
    pub layer_ns: Vec<(Layer, u64)>,
    /// Traced time no layer span covers: root-span self time plus the gaps
    /// between root spans, less idle time.
    pub bench_ns: u64,
    /// Time the workload spent waiting for work to come due.
    pub idle_ns: u64,
    /// Spans recorded.
    pub spans: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: clock::now_ns(),
            spans: Vec::new(),
            stack: Vec::new(),
            work: vec![Work::default(); Layer::ALL.len() * MAX_HOPS],
            window: None,
            phase: None,
            idle_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        clock::since(self.origin)
    }

    /// Marks the start of the traced phase (spans before it are not expected).
    pub fn begin_phase(&mut self) {
        if self.enabled {
            let t = self.now_ns();
            self.phase = Some((t, t));
        }
    }

    /// Marks the end of the traced phase and stops recording.
    pub fn end_phase(&mut self) {
        if self.enabled {
            assert!(self.stack.is_empty(), "traced phase ended inside a span");
            let t = self.now_ns();
            if let Some((_, end)) = &mut self.phase {
                *end = t;
            }
            self.enabled = false;
        }
    }

    /// Records time spent outside any span waiting for work to come due
    /// (an open loop's pacing), which is not the benchmark's own work.
    pub fn idle(&mut self, ns: u64) {
        if self.enabled {
            self.idle_ns += ns;
        }
    }

    /// Snapshots the work counters: the counted window is everything
    /// recorded so far.
    pub fn freeze_window(&mut self) {
        if self.phase.is_some() && self.window.is_none() {
            self.window = Some(self.work.clone());
        }
    }

    /// Opens a span; spans opened while another is open become its children.
    pub fn open(&mut self, layer: Layer, hop: usize, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now_ns();
        self.spans.push(Span {
            start,
            end: start,
            req,
            parent,
            layer,
            hop: hop as u8,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span covering `items` items.
    pub fn close(&mut self, open: Open, items: u64) {
        self.close_with(
            open,
            Work {
                calls: 1,
                items,
                ..Work::default()
            },
        );
    }

    fn close_with(&mut self, open: Open, mut w: Work) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close in reverse opening order");
        let span = &mut self.spans[idx as usize];
        span.end = end;
        w.ns = end - span.start;
        let slot = span.layer.slot(span.hop as usize);
        self.work[slot].add(&w);
    }

    /// Calls `f` inside a span, counting the allocations, AES blocks and
    /// key expansions it performs.
    #[inline]
    pub fn call<R>(
        &mut self,
        layer: Layer,
        hop: usize,
        req: u64,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        // Counters are read inside the span, so the tracer's own growth of
        // `spans` and `stack` is never charged to the layer.
        let open = self.open(layer, hop, req);
        let (a0, b0, k0) = (allocations(), aes_block_ops(), key_expansions());
        let r = f();
        let end_counts = (allocations(), aes_block_ops(), key_expansions());
        let w = Work {
            calls: 1,
            items,
            allocs: end_counts.0 - a0,
            aes_blocks: end_counts.1 - b0,
            key_expansions: end_counts.2 - k0,
            ..Work::default()
        };
        self.close_with(open, w);
        r
    }

    /// Work of one (layer, hop) over the whole traced phase.
    pub fn work(&self, layer: Layer, hop: usize) -> Work {
        self.work[layer.slot(hop)]
    }

    /// Work of a layer summed over hops, over the whole traced phase.
    pub fn layer_work(&self, layer: Layer) -> Work {
        sum_hops(&self.work, layer)
    }

    /// Work of a layer summed over hops, over the counted window only.
    pub fn window_work(&self, layer: Layer) -> Work {
        sum_hops(self.window.as_deref().unwrap_or(&self.work), layer)
    }

    /// Self time per layer. Fails unless every span lies inside its parent,
    /// root spans do not overlap, and the self times plus the benchmark's
    /// own time and idle time add up exactly to the phase's CPU time.
    pub fn self_times(&self) -> Result<SelfTimes, String> {
        let (p0, p1) = self.phase.ok_or("tracer never recorded a phase")?;
        let phase_ns = p1 - p0;
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut roots_ns = 0u64;
        let mut last_root_end = p0;
        for s in &self.spans {
            if s.start < p0 || s.end > p1 || s.end < s.start {
                return Err(format!("span {} outside the traced phase", s.layer.name()));
            }
            if s.parent == NO_PARENT {
                if s.start < last_root_end {
                    return Err("root spans overlap".into());
                }
                last_root_end = s.end;
                roots_ns += s.end - s.start;
            } else {
                let p = &self.spans[s.parent as usize];
                if s.start < p.start || s.end > p.end {
                    return Err(format!(
                        "{} escapes its parent {}",
                        s.layer.name(),
                        p.layer.name()
                    ));
                }
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut layer_ns = vec![0u64; Layer::ALL.len()];
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let dur = s.end - s.start;
            let own = dur.checked_sub(c).ok_or("children overlap inside a span")?;
            layer_ns[s.layer as usize] += own;
        }
        let uncovered = (phase_ns - roots_ns)
            .checked_sub(self.idle_ns)
            .ok_or("idle time overlaps spans")?;
        let bench_ns = layer_ns[Layer::Step as usize] + uncovered;
        let total: u64 = layer_ns.iter().sum::<u64>() + uncovered + self.idle_ns;
        if total != phase_ns {
            return Err(format!(
                "self times sum to {total} ns, traced phase is {phase_ns} ns"
            ));
        }
        Ok(SelfTimes {
            phase_ns,
            layer_ns: Layer::ALL
                .iter()
                .map(|&l| (l, layer_ns[l as usize]))
                .collect(),
            bench_ns,
            idle_ns: self.idle_ns,
            spans: self.spans.len(),
        })
    }

    /// Writes every span as CSV: `id,parent,name,hop,req,start_ns,end_ns`
    /// (`parent` is empty for root spans).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,hop,req,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{}",
                s.layer.name(),
                s.hop,
                s.req,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

fn sum_hops(work: &[Work], layer: Layer) -> Work {
    let mut w = Work::default();
    for hop in 0..MAX_HOPS {
        w.add(&work[layer.slot(hop)]);
    }
    w
}
