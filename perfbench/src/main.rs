//! `perfbench` — the compiled half of the dvicl benchmark (`run.py` is
//! the other half).
//!
//! ```text
//! perfbench gen <DIR> <SEED> <RELABELINGS> <DATASET>...   seeded relabelings as edge-list files
//! perfbench corpus <DIR> <SEED>                           seeded serve request stream + class keys
//! perfbench trace <OUT>                                   traced in-process replay of stdin requests
//! ```
//!
//! `gen` and `corpus` write the inputs `run.py` feeds to the release
//! `dvicl` binary; `trace` replays the same requests through the
//! library's public functions, one span per layer call, and writes the
//! spans when the replay ends.

mod gen;
mod trace;

use dvicl_graph::{Graph, Perm, V};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") if args.len() >= 5 => parse_u64(&args[2]).and_then(|seed| {
            let relabelings = parse_u64(&args[3])? as usize;
            gen::oneshot(Path::new(&args[1]), seed, relabelings, &args[4..])
        }),
        Some("corpus") if args.len() == 3 => {
            parse_u64(&args[2]).and_then(|seed| gen::corpus(Path::new(&args[1]), seed))
        }
        Some("trace") if args.len() == 2 => trace::run(Path::new(&args[1])),
        _ => Err(
            "usage: perfbench gen DIR SEED RELABELINGS DATASET... | corpus DIR SEED | trace OUT"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// splitmix64: a small seeded generator, so every input is a pure
/// function of the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Combines two values into one well-mixed stream seed.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32)).next_u64()
}

/// FNV-1a over bytes: stream seeds from dataset names and digests of
/// answers, independent of any hashing in the program under test.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A uniformly random relabeling of `g` (Fisher–Yates over the vertex
/// ids), so no request arrives in the generator's vertex order.
pub fn relabeled(g: &Graph, rng: &mut Rng) -> Graph {
    let n = g.n();
    let mut image: Vec<V> = (0..n as V).collect();
    for i in (1..n).rev() {
        image.swap(i, rng.below(i + 1));
    }
    g.permuted(&Perm::from_image(image).expect("Fisher–Yates keeps the image a bijection"))
}
