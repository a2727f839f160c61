//! Round-trip property tests for the JSON plane and the trace format:
//! random `Json` trees encode to text that parses back to an identical
//! tree, whole JSONL traces survive `RunRecorder` → `parse_trace`, and
//! `parse_trace` answers `Ok` or `Err` — never a panic, never a stack
//! overflow — on arbitrary text, on damaged real traces and on lines
//! nested far deeper than any record.

use cloudia_obs::{parse_trace, Json, RunRecorder, TRACE_KINDS};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds a random JSON tree. The proptest shim has no recursive
/// strategies, so the tree is grown imperatively from a drawn seed.
fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let pick = if depth == 0 { rng.random_range(0..4) } else { rng.random_range(0..6) };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.random::<bool>()),
        2 => random_num(rng),
        3 => Json::Str(random_string(rng)),
        4 => {
            let n = rng.random_range(0..4usize);
            Json::Arr((0..n).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.random_range(0..4usize);
            let mut obj = Json::obj();
            for i in 0..n {
                // Distinct keys: `field` replaces duplicates, which would
                // make the round-trip comparison fail spuriously.
                let key = format!("k{i}_{}", random_string(rng));
                obj = obj.field(&key, random_json(rng, depth - 1));
            }
            obj
        }
    }
}

fn random_num(rng: &mut StdRng) -> Json {
    match rng.random_range(0..4) {
        0 => Json::Num(f64::from(rng.random_range(-1_000_000i32..1_000_000))),
        1 => Json::Num(rng.random::<f64>() * 1e9 - 5e8),
        2 => Json::Num(rng.random::<f64>() * 1e-6),
        _ => Json::Num(f64::from_bits(rng.random::<u64>() >> 2)), // finite-biased bit soup
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let n = rng.random_range(0..8usize);
    (0..n)
        .map(|_| {
            let c = rng.random_range(0u32..0x250);
            char::from_u32(c).unwrap_or('x')
        })
        .collect()
}

/// Non-finite numbers deliberately encode as `null`; replace them so
/// equality holds on the rest of the tree.
fn normalize(v: &Json) -> Json {
    match v {
        Json::Num(x) if !x.is_finite() => Json::Null,
        Json::Arr(items) => Json::Arr(items.iter().map(normalize).collect()),
        Json::Obj(pairs) => {
            Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), normalize(v))).collect())
        }
        other => other.clone(),
    }
}

/// A record kind other than `meta` (which only the first record has).
fn random_kind(rng: &mut StdRng) -> &'static str {
    TRACE_KINDS[rng.random_range(1..TRACE_KINDS.len())]
}

/// Characters the parser branches on, drawn often so arbitrary text gets
/// past the first byte: structure, escapes, literals, number syntax,
/// surrogate halves and multi-byte scalars.
const JSONISH: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'D', '8', 'C', '0', '9', '-', '+', '.', 'e', 'n',
    't', 'f', ' ', '\n', '\r', 'é', '😀',
];

/// Up to 200 characters: two in three from [`JSONISH`], the rest any
/// scalar value.
fn arbitrary_text(rng: &mut StdRng) -> String {
    let n = rng.random_range(0..200usize);
    (0..n)
        .map(|_| match rng.random_range(0..3) {
            0 => char::from_u32(rng.random_range(0..0x11_0000)).unwrap_or('\u{fffd}'),
            _ => JSONISH[rng.random_range(0..JSONISH.len())],
        })
        .collect()
}

/// A real `RunRecorder` trace, then up to four damages: a truncation at
/// any byte, a splice of random bytes or of a slice copied from elsewhere
/// in the trace, or a dropped line. Bytes that no longer form UTF-8 are
/// replaced, as reading a damaged file lossily would.
fn damaged_trace(rng: &mut StdRng) -> String {
    let (mut rec, buf) = RunRecorder::to_vec(Json::obj().field("run", "fuzz"));
    for _ in 0..rng.random_range(1..6usize) {
        rec.record(random_kind(rng), normalize(&random_json(rng, 3)));
    }
    rec.finish().unwrap();
    let mut bytes = buf.lock().unwrap().clone();
    for _ in 0..rng.random_range(0..5usize) {
        let len = bytes.len();
        let at = rng.random_range(0..=len);
        match rng.random_range(0..4) {
            0 => bytes.truncate(at),
            1 => {
                let end = (at + rng.random_range(0..8usize)).min(len);
                let junk: Vec<u8> = (0..rng.random_range(0..8usize))
                    .map(|_| rng.random_range(0..=u8::MAX))
                    .collect();
                bytes.splice(at..end, junk);
            }
            2 => {
                let from = rng.random_range(0..=len);
                let copy = bytes[from..(from + rng.random_range(0..40usize)).min(len)].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
                lines.remove(rng.random_range(0..lines.len()));
                bytes = lines.join(&b'\n');
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A real trace with a run of 1 000 – 100 000 opening brackets (arrays,
/// or objects opened up to their first value) spliced in at any byte, and
/// sometimes closed again: the recursive descent must refuse the depth,
/// not recurse into it.
fn deeply_nested_trace(rng: &mut StdRng) -> String {
    let trace = damaged_trace(rng);
    let depth = rng.random_range(1_000..100_000usize);
    let (open, close) = if rng.random::<bool>() { ("[", "]") } else { ("{\"k\":", "}") };
    let mut nested = open.repeat(depth);
    if rng.random::<bool>() {
        nested.push_str(&format!("0{}", close.repeat(depth)));
    }
    let mut at = rng.random_range(0..=trace.len());
    while !trace.is_char_boundary(at) {
        at -= 1;
    }
    format!("{}{nested}{}", &trace[..at], &trace[at..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn parse_trace_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for text in [arbitrary_text(&mut rng), damaged_trace(&mut rng), deeply_nested_trace(&mut rng)] {
            // `Ok` or `Err` are both answers; only an unwind is a failure.
            let answered = std::panic::catch_unwind(|| parse_trace(&text).is_ok());
            prop_assert!(answered.is_ok(), "parse_trace panicked on {:?}", text);
        }
    }

    #[test]
    fn json_encode_parse_is_identity(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_json(&mut rng, 4);
        let text = tree.encode();
        let parsed = Json::parse(&text).expect("encoder output must parse");
        prop_assert_eq!(parsed, normalize(&tree), "text: {}", text);
    }

    #[test]
    fn jsonl_traces_round_trip(seed in 0u64..u64::MAX, records in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut rec, buf) = RunRecorder::to_vec(Json::obj().field("run", "proptest"));
        let mut expected = Vec::new();
        for _ in 0..records {
            let kind = random_kind(&mut rng);
            let payload = normalize(&random_json(&mut rng, 3));
            rec.record(kind, payload.clone());
            expected.push((kind.to_string(), payload));
        }
        rec.finish().unwrap();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = parse_trace(&text).expect("recorder output must validate");
        prop_assert_eq!(parsed.len(), expected.len() + 1);
        prop_assert_eq!(parsed[0].kind.as_str(), "meta");
        for (i, (kind, payload)) in expected.iter().enumerate() {
            prop_assert_eq!(&parsed[i + 1].kind, kind);
            prop_assert_eq!(parsed[i + 1].seq, (i + 1) as u64);
            prop_assert_eq!(&parsed[i + 1].payload, payload);
        }
    }
}

#[test]
fn same_records_yield_byte_identical_traces() {
    let build = || {
        let (mut rec, buf) = RunRecorder::to_vec(Json::obj().field("run", "det"));
        rec.record("event", Json::obj().field("kind", "Epoch").field("cost", 1.5));
        rec.note("done");
        rec.finish().unwrap();
        let bytes = buf.lock().unwrap().clone();
        bytes
    };
    assert_eq!(build(), build());
}
