//! Seeded input generators. The program under test only ever sees the
//! request bodies (or arrival traces) built here.

use haxconn::core::problem::TaskDep;
use haxconn::core::WorkloadSpec;
use haxconn::dnn::Model;
use haxconn::soc::PlatformId;

/// splitmix64 finalizer: a stateless hash, so a draw depends only on
/// `(seed, stream, index)` and never on thread timing.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from a hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A sequential generator over [`mix`].
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipfian(s = 1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn pick(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

const PLATFORMS: [PlatformId; 3] = [
    PlatformId::OrinAgx,
    PlatformId::XavierAgx,
    PlatformId::Snapdragon865,
];

/// The short spelling of a platform that canonicalizes to its slug.
fn platform_alias(p: PlatformId) -> &'static str {
    match p {
        PlatformId::OrinAgx => "orin",
        PlatformId::XavierAgx => "xavier",
        PlatformId::Snapdragon865 => "snapdragon865",
    }
}

fn pair_spec(platform: &str, a: &str, ga: usize, b: &str, gb: usize) -> WorkloadSpec {
    WorkloadSpec::new(platform).task(a, ga).task(b, gb)
}

fn to_json(spec: &WorkloadSpec) -> String {
    spec.to_json().expect("a WorkloadSpec always serializes")
}

/// One hot-mix catalog entry: the canonical spelling and an alias
/// spelling (short platform name, lower-case models) of the same problem.
pub struct HotEntry {
    pub spec: WorkloadSpec,
    pub body: String,
    pub alias_body: String,
}

/// Share of hot-mix requests sent in the alias spelling.
pub const HOT_ALIAS_SHARE: f64 = 0.25;

/// The hot-mix catalog: 3 models (ordered pairs, self-pairs included) x
/// 3 platforms x group counts 4..=7 per task = 432 specs, well inside the
/// default 1024-entry schedule cache. The rank order is a fixed shuffle,
/// independent of the run seed, so the Zipf weights of every spec are the
/// same in every run and only the request sequence changes with the seed.
pub fn hot_catalog() -> Vec<HotEntry> {
    const MODELS: [Model; 3] = [Model::GoogleNet, Model::ResNet18, Model::MobileNetV1];
    let mut out = Vec::new();
    for p in PLATFORMS {
        for a in MODELS {
            for b in MODELS {
                for ga in 4..=7 {
                    for gb in 4..=7 {
                        let spec = pair_spec(p.slug(), a.name(), ga, b.name(), gb);
                        let alias = pair_spec(
                            platform_alias(p),
                            &a.name().to_ascii_lowercase(),
                            ga,
                            &b.name().to_ascii_lowercase(),
                            gb,
                        );
                        out.push(HotEntry {
                            body: to_json(&spec),
                            alias_body: to_json(&alias),
                            spec,
                        });
                    }
                }
            }
        }
    }
    Rng::new(0x4807_C47A_1061).shuffle(&mut out);
    out
}

/// Cold-mix: every ordered model pair (14 x 14) on every platform forms
/// one *cell*; a block holds each of the 588 cells once, in a seeded
/// order. Each cell has 108 variants (group counts 3..=8 per task; no
/// dependency, 0 -> 1 or 1 -> 0), and block `k` takes the `k`-th entry of
/// a seeded per-cell permutation of them, so no spec ever repeats and
/// every whole block has the same model/platform composition whatever
/// the seed.
pub const COLD_BLOCK: usize = 588;
pub const COLD_BLOCKS: usize = 108;

pub fn cold_stream(seed: u64) -> Vec<WorkloadSpec> {
    let models = Model::all();
    let mut cells = Vec::with_capacity(COLD_BLOCK);
    for p in PLATFORMS {
        for a in models {
            for b in models {
                cells.push((p, *a, *b));
            }
        }
    }
    assert_eq!(cells.len(), COLD_BLOCK);
    let variants: Vec<(usize, usize, Option<TaskDep>)> = (3..=8)
        .flat_map(|ga| {
            (3..=8).flat_map(move |gb| {
                [
                    (ga, gb, None),
                    (ga, gb, Some(TaskDep { from: 0, to: 1 })),
                    (ga, gb, Some(TaskDep { from: 1, to: 0 })),
                ]
            })
        })
        .collect();
    assert_eq!(variants.len(), COLD_BLOCKS);
    let mut rng = Rng::new(seed ^ 0xC01D);
    let perms: Vec<Vec<usize>> = cells
        .iter()
        .map(|_| {
            let mut v: Vec<usize> = (0..COLD_BLOCKS).collect();
            rng.shuffle(&mut v);
            v
        })
        .collect();
    let mut out = Vec::with_capacity(COLD_BLOCK * COLD_BLOCKS);
    for block in 0..COLD_BLOCKS {
        let mut order: Vec<usize> = (0..COLD_BLOCK).collect();
        rng.shuffle(&mut order);
        for c in order {
            let (p, a, b) = cells[c];
            let (ga, gb, dep) = variants[perms[c][block]];
            let mut spec = pair_spec(p.slug(), a.name(), ga, b.name(), gb);
            if let Some(d) = dep {
                spec = spec.dep(d.from, d.to);
            }
            out.push(spec);
        }
    }
    out
}
