//! The seeded request generator.
//!
//! Every workload is built from one *cold set*: preset networks on
//! seeded architectures plus seeded inline 3x3 stacks, each request a
//! distinct `(layer shapes, arch)` pair. Fresh stacks, disjoint from the
//! cold set and from each other, feed the miss side of `mixed_rw` and
//! the miss probe of `warm_hits`. The daemon only ever sees the
//! generated request lines; the same seed gives byte-identical lines.

use flexer::arch::ArchPreset;
use flexer::model::networks;
use flexer::model::ConvLayer;
use flexer_serve::{parse_request, Request};
use std::collections::{BTreeMap, HashMap, HashSet};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_f1e8_2023_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One generated request: its wire line and the request the daemon
/// will parse from it.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: String,
    pub line: String,
    pub req: Request,
    /// A preset network on an arch: the same requests for every seed.
    pub preset: bool,
}

impl Req {
    fn new(id: String, line: String, preset: bool) -> Self {
        let req = parse_request(&line).expect("generated request lines are valid");
        Self {
            id,
            line,
            req,
            preset,
        }
    }

    pub fn layers(&self) -> &[ConvLayer] {
        self.req
            .network
            .as_ref()
            .expect("generated requests carry a network")
            .layers()
    }
}

/// Preset networks in the cold set, one per operator family: dense
/// 3x3 + 1x1 branches, 1x1 squeeze/expand, matmul, depthwise. The
/// large dense presets (vgg16, resnet50, yolov2) are left out: one of
/// them takes 0.2-1.5 s to search on quick options, so its arch draw
/// alone would set the run-to-run spread.
const PRESETS: [&str; 4] = ["firenet", "squeezenet", "transformer", "mobilenet"];

const SIDES: [u32; 6] = [8, 10, 12, 14, 16, 20];
const DEPTHS: [usize; 3] = [4, 5, 6];
const CHANNELS: [u32; 8] = [16, 24, 32, 40, 48, 56, 64, 80];

/// The shape key two layers share a memo (and store) entry under.
fn layer_key(layer: &ConvLayer, arch: ArchPreset) -> String {
    format!(
        "{arch}/{}x{}x{}->{} k{}x{} s{} p{} {:?}",
        layer.in_channels(),
        layer.in_height(),
        layer.in_width(),
        layer.out_channels(),
        layer.kernel_h(),
        layer.kernel_w(),
        layer.stride(),
        layer.padding(),
        layer.kind()
    )
}

/// Sizes of the generated sets.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Architectures each preset is scheduled on, drawn without
    /// replacement.
    pub preset_arches: usize,
    /// Inline stacks in the cold set.
    pub inline_stacks: usize,
}

impl Size {
    pub const FULL: Size = Size {
        preset_arches: 8,
        inline_stacks: 24,
    };
    pub const TINY: Size = Size {
        preset_arches: 1,
        inline_stacks: 3,
    };
}

/// Generates cold-set and fresh requests; remembers every layer key
/// handed out so no two generated inline layers share a store entry.
#[derive(Debug)]
pub struct Generator {
    rng: Rng,
    used: HashSet<String>,
    fresh: usize,
    stacks: usize,
    sides: Vec<u32>,
    depths: Vec<usize>,
    arches: Vec<ArchPreset>,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            used: HashSet::new(),
            fresh: 0,
            stacks: 0,
            sides: Vec::new(),
            depths: Vec::new(),
            arches: Vec::new(),
        }
    }

    /// The cold set, in its seeded send order. Ids are `c<n>`.
    pub fn cold_set(&mut self, size: Size) -> Vec<Req> {
        let mut specs: Vec<Spec> = Vec::new();
        for preset in PRESETS {
            let mut arches = ArchPreset::all();
            self.rng.shuffle(&mut arches);
            for &arch in &arches[..size.preset_arches] {
                let net = networks::by_name(preset).expect("known preset");
                for layer in net.layers() {
                    self.used.insert(layer_key(layer, arch));
                }
                specs.push(Spec::Preset(preset, arch));
            }
        }
        for _ in 0..size.inline_stacks {
            specs.push(self.stack());
        }
        self.rng.shuffle(&mut specs);
        specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| spec.render(format!("c{i}")))
            .collect()
    }

    /// The next fresh inline stack, disjoint from everything generated
    /// before it. Ids are `f<n>`.
    pub fn fresh(&mut self) -> Req {
        let id = format!("f{}", self.fresh);
        self.fresh += 1;
        self.stack().render(id)
    }

    /// A chained 3x3 stack on a seeded arch, every layer shape unused so
    /// far on that arch. Sides, depths and arches come from balanced
    /// blocks: every six consecutive stacks use each side once, every
    /// three each depth once, every eight each arch once, in seeded
    /// order. Any 24 stacks then cost about the same whatever the seed,
    /// which keeps the spread between seeds small.
    fn stack(&mut self) -> Spec {
        let k = self.stacks;
        self.stacks += 1;
        let side = balanced(&mut self.rng, &mut self.sides, &SIDES, k);
        let depth = balanced(&mut self.rng, &mut self.depths, &DEPTHS, k);
        let arch = balanced(&mut self.rng, &mut self.arches, &ArchPreset::all(), k);
        loop {
            let mut cin = self.rng.pick(&CHANNELS);
            let mut layers = Vec::with_capacity(depth);
            let mut keys = Vec::with_capacity(depth);
            for _ in 0..depth {
                let cout = self.rng.pick(&CHANNELS);
                let layer = ConvLayer::new("probe", cin, side, side, cout)
                    .expect("generated shapes are valid");
                let key = layer_key(&layer, arch);
                if self.used.contains(&key) || keys.contains(&key) {
                    break;
                }
                keys.push(key);
                layers.push((cin, side, cout));
                cin = cout;
            }
            if layers.len() == depth {
                self.used.extend(keys);
                return Spec::Inline(arch, layers);
            }
        }
    }
}

/// The `k`-th value of a sequence of seeded permutations of `values`.
fn balanced<T: Copy>(rng: &mut Rng, block: &mut Vec<T>, values: &[T], k: usize) -> T {
    if k.is_multiple_of(values.len()) {
        *block = values.to_vec();
        rng.shuffle(block);
    }
    block[k % values.len()]
}

enum Spec {
    Preset(&'static str, ArchPreset),
    Inline(ArchPreset, Vec<(u32, u32, u32)>),
}

impl Spec {
    fn render(self, id: String) -> Req {
        let preset = matches!(self, Spec::Preset(..));
        let line = match self {
            Spec::Preset(net, arch) => {
                format!(r#"{{"op":"schedule","id":"{id}","network":"{net}","arch":"{arch}"}}"#)
            }
            Spec::Inline(arch, layers) => {
                let layers: Vec<String> = layers
                    .iter()
                    .enumerate()
                    .map(|(i, (cin, side, cout))| {
                        format!(
                            r#"{{"name":"l{i}","in_channels":{cin},"height":{side},"width":{side},"out_channels":{cout}}}"#
                        )
                    })
                    .collect();
                format!(
                    r#"{{"op":"schedule","id":"{id}","network":"stack-{id}","arch":"{arch}","layers":[{}]}}"#,
                    layers.join(",")
                )
            }
        };
        Req::new(id, line, preset)
    }
}

/// The recorded properties of a workload's request set.
pub fn properties(set: &[Req]) -> BTreeMap<&'static str, String> {
    let mut keys: HashMap<String, usize> = HashMap::new();
    let mut arch_mix: BTreeMap<String, usize> = BTreeMap::new();
    let mut layers = 0usize;
    for r in set {
        *arch_mix.entry(r.req.arch.to_string()).or_default() += 1;
        for layer in r.layers() {
            layers += 1;
            *keys.entry(layer_key(layer, r.req.arch)).or_default() += 1;
        }
    }
    let sharing: usize = keys.values().filter(|&&n| n > 1).sum();
    let mut p = BTreeMap::new();
    p.insert("requests", set.len().to_string());
    p.insert("layers", layers.to_string());
    p.insert("distinct_shapes", keys.len().to_string());
    p.insert(
        "layers_sharing_memo_key",
        format!("{:.3}", sharing as f64 / layers.max(1) as f64),
    );
    p.insert(
        "layers_per_request",
        format!("{:.2}", layers as f64 / set.len().max(1) as f64),
    );
    p.insert(
        "arch_mix",
        arch_mix
            .iter()
            .map(|(a, n)| format!("{a}:{n}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> String {
        let mut g = Generator::new(seed);
        let mut lines: Vec<String> = g.cold_set(Size::FULL).into_iter().map(|r| r.line).collect();
        lines.extend((0..50).map(|_| g.fresh().line));
        lines.join("\n")
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn inline_layers_never_share_a_store_entry() {
        let mut g = Generator::new(3);
        let mut set = g.cold_set(Size::FULL);
        set.extend((0..200).map(|_| g.fresh()));
        let mut seen = HashSet::new();
        for r in set.iter().filter(|r| r.line.contains(r#""layers""#)) {
            for layer in r.layers() {
                assert!(seen.insert(layer_key(layer, r.req.arch)), "{}", r.line);
            }
        }
    }
}
