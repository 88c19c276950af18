//! Fuzz suite over the untrusted text inputs: daemon request lines
//! ([`wavepipe_serve::Request::parse`]), spec files
//! ([`wavepipe::FlowSpec::from_json`]) and `.mig` netlists
//! ([`mig::parse_mig`]). Inputs are random byte strings, plus
//! truncations, byte flips, insertions, deletions and splices of valid
//! seeds: the checked-in `examples/engine_spec.json`, one request line
//! of each kind, and `write_mig` of a small synthetic graph. Every
//! input is read through `String::from_utf8_lossy` and handed to all
//! three parsers. The oracle: each returns `Ok` or `Err`, never
//! panics, and never holds more than [`BYTES_PER_INPUT_BYTE`] live heap
//! bytes per input byte plus [`BASE_BYTES`] at once — so no input can
//! make a parser allocate out of proportion to its length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;
use wavepipe::FlowSpec;
use wavepipe_serve::{Control, Request};

type Parser = fn(&str);

/// Heap bytes a parser may hold per input byte. A parsed JSON value is
/// 32 bytes and an array's first allocation holds four of them, so the
/// two bytes of a nested `[` `]` pair cost 128; vectors grow by
/// doubling. The worst shapes below (deeply nested arrays) hold about
/// 80 bytes per input byte.
const BYTES_PER_INPUT_BYTE: usize = 256;

/// Heap bytes a parser may hold regardless of input length: hash-map
/// and vector first allocations, error messages.
const BASE_BYTES: usize = 64 * 1024;

/// The system allocator, counting each thread's live heap bytes and
/// their high-water mark. Counts are per thread, so the test harness's
/// parallel tests do not see each other's allocations.
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live bytes and raises its peak. During
/// thread teardown the counters may be gone; nothing is counted then.
fn count(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(delta);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // Both blocks may be live during the move: count the peak.
            count(new_size as isize);
            count(-(layout.size() as isize));
        }
        new
    }
}

/// Peak heap bytes `f` holds on this thread beyond what was live
/// before it ran.
fn peak_bytes(f: impl FnOnce()) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    f();
    (PEAK.with(Cell::get) - base).max(0) as usize
}

/// The parsers under test; each discards its result, `Ok` or `Err`.
const PARSERS: [(&str, Parser); 3] = [
    ("Request::parse", |text| drop(Request::parse(text))),
    ("FlowSpec::from_json", |text| {
        drop(FlowSpec::from_json(text))
    }),
    ("mig::parse_mig", |text| drop(mig::parse_mig(text))),
];

/// Bytes the structured generator draws from: the punctuation and
/// keywords of both grammars, so random strings get past the first
/// token more often than uniform bytes do.
const ALPHABET: &[u8] = b"{}[]\":,.-+0123456789eE\\u tfnrlasMAJ()!=\n#abgio_";

/// Runs every parser on `bytes` and fails with the input if one panics
/// or holds more heap than the linear bound allows.
fn parse_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let bound = BYTES_PER_INPUT_BYTE * text.len() + BASE_BYTES;
    for (name, parse) in PARSERS {
        let mut panicked = false;
        let peak = peak_bytes(|| {
            panicked = catch_unwind(AssertUnwindSafe(|| parse(&text))).is_err();
        });
        if panicked {
            panic!("{name} panicked on {text:?}");
        }
        assert!(
            peak <= bound,
            "{name} held {peak} heap bytes on a {}-byte input (bound {bound}): {text:?}",
            text.len()
        );
    }
}

/// The valid seed inputs, built once per test binary.
fn seeds() -> &'static [Vec<u8>] {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let spec_json =
            std::fs::read_to_string("examples/engine_spec.json").expect("checked-in spec");
        let spec = FlowSpec::from_json(&spec_json).expect("checked-in spec parses");
        let mut seeds = vec![
            spec_json.clone().into_bytes(),
            Request::Run { id: 7, spec }.to_line().into_bytes(),
        ];
        for (id, control) in [Control::Ping, Control::Stats, Control::Shutdown]
            .into_iter()
            .enumerate()
        {
            seeds.push(
                Request::Control {
                    id: id as u64,
                    control,
                }
                .to_line()
                .into_bytes(),
            );
        }
        let graph = benchsuite::build_mig("synth:dag:3:depth=5,inputs=6,nodes=40,outputs=4")
            .expect("synth name resolves");
        seeds.push(mig::write_mig(&graph).into_bytes());
        seeds
    })
}

/// splitmix64: the mutation script's random source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies one mutation to `bytes`: truncation, byte flips, a random
/// insertion, a deleted range, or a splice with another seed.
fn mutate(mut bytes: Vec<u8>, op: u8, state: &mut u64) -> Vec<u8> {
    let mut below = |n: usize| (splitmix(state) % (n as u64 + 1)) as usize;
    match op {
        0 => {
            let at = below(bytes.len());
            bytes.truncate(at);
        }
        1 if !bytes.is_empty() => {
            for _ in 0..=below(7) {
                let at = below(bytes.len() - 1);
                bytes[at] ^= 1 + below(254) as u8;
            }
        }
        2 => {
            let at = below(bytes.len());
            let insert: Vec<u8> = (0..=below(15))
                .map(|_| ALPHABET[below(ALPHABET.len() - 1)])
                .collect();
            bytes.splice(at..at, insert);
        }
        3 => {
            let start = below(bytes.len());
            let end = start + below(bytes.len() - start);
            bytes.drain(start..end);
        }
        _ => {
            let other = &seeds()[below(seeds().len() - 1)];
            let (cut, from) = (below(bytes.len()), below(other.len()));
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[from..]);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Uniform random bytes, and random strings over both grammars'
    /// alphabet, up to 512 bytes.
    #[test]
    fn random_bytes_never_panic_a_parser(seed in any::<u64>(), len in 0usize..512) {
        let mut state = seed;
        let uniform: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
        parse_all(&uniform);
        let structured: Vec<u8> = (0..len)
            .map(|_| ALPHABET[(splitmix(&mut state) % ALPHABET.len() as u64) as usize])
            .collect();
        parse_all(&structured);
    }

    /// One to four stacked mutations of a valid seed.
    #[test]
    fn mutated_seeds_never_panic_a_parser(
        which in 0usize..64,
        ops in prop::collection::vec(0u8..5, 4),
        rounds in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut bytes = seeds()[which % seeds().len()].clone();
        for &op in &ops[..rounds] {
            bytes = mutate(bytes, op, &mut state);
        }
        parse_all(&bytes);
    }
}

/// Every prefix of every seed: the cut lands once inside each token,
/// string, escape and line of both grammars.
#[test]
fn every_truncation_of_every_seed_never_panics_a_parser() {
    for seed in seeds() {
        for cut in 0..seed.len() {
            parse_all(&seed[..cut]);
        }
    }
}

/// The seeds themselves parse with their own parser, so the mutations
/// above start from inputs that reach every stage of each grammar.
#[test]
fn every_seed_parses_with_its_own_parser() {
    let text = |i: usize| String::from_utf8(seeds()[i].clone()).expect("seeds are UTF-8");
    FlowSpec::from_json(&text(0)).expect("spec seed");
    for i in 1..5 {
        Request::parse(&text(i)).expect("request seed");
    }
    mig::parse_mig(&text(5)).expect("mig seed");
}

/// Long inputs of the shapes that allocate most per byte: flat and
/// nested JSON arrays and objects, escape-heavy strings, and `.mig`
/// files made of declarations, gates and output bindings.
#[test]
fn allocation_heavy_shapes_stay_within_the_linear_bound() {
    let n = 20_000;
    let names = |prefix: &str| {
        (0..n / 4)
            .map(|i| format!("{prefix}{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let gates: String = (0..n / 4)
        .map(|i| {
            format!(
                "g{i} = MAJ(i{i}, !i{}, i{})\n",
                (i + 1) % (n / 4),
                (i + 2) % (n / 4)
            )
        })
        .collect();
    let nested = format!("{}{},", "[".repeat(100), "]".repeat(100));
    let run_prefix = r#"{"id":1,"spec":{"name":"x","technologies":[],"circuits":["A"],"#;
    let inputs = [
        format!("[{}0]", "0,".repeat(n)),
        format!("[{}[]]", "[],".repeat(n)),
        format!("[{}{{}}]", "{},".repeat(n)),
        format!("{{{}\"a\":0}}", "\"a\":0,".repeat(n)),
        format!("[{}\"\"]", "\"\",".repeat(n)),
        format!("\"{}\"", "\\u0041".repeat(n)),
        format!("[{}0]", nested.repeat(n / 200)),
        format!(
            r#"{run_prefix}"pipeline":{{"minimize_inverters":false,"passes":[{}{{"pass":"verify","fanout_limit":3}}]}}}}}}"#,
            r#"{"pass":"restrict_fanout","limit":3},"#.repeat(n / 16)
        ),
        format!(
            ".model m\n.inputs {}\n.outputs o\n{gates}o = g0\n",
            names("i")
        ),
        format!(".model m\n.inputs a b c\n.outputs {}\n", names("o")),
    ];
    for input in &inputs {
        parse_all(input.as_bytes());
    }
}
