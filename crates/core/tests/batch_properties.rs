//! Properties of the batch decoder (`CrayfishDataBatch::decode`).
//!
//! * it is total: arbitrary bytes, every truncation of a valid payload,
//!   valid payloads with bytes overwritten and valid payloads whose `bsz`
//!   or `shape` claims up to 2^60 elements decode or yield a
//!   `CoreError::Codec` — never a panic — and what they allocate is bounded
//!   by the payload they were given, whatever a count inside it claims;
//! * every number token decodes to exactly what `str::parse::<f32>` makes
//!   of it, so `decode(encode(x)) == x` bit for bit for every finite `f32`.
//!
//! The differential against the derived `Deserialize` is a unit test of
//! `crayfish_core::batch`: the derive exists under `cfg(test)` only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crayfish_core::batch::CrayfishDataBatch;
use crayfish_core::CoreError;
use crayfish_tensor::Tensor;
use proptest::collection::vec;
use proptest::prelude::*;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, tallying requested bytes per thread.
struct Tally;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tally only reads and writes a thread-local
// `Cell<usize>` that has no destructor and never allocates.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + new_size));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tally = Tally;

/// Decode `payload`, holding the allocation bound: a decoded value is at
/// most four times its text (a `usize` of `shape` from a digit and a comma),
/// plus one error message.
fn decode_within_bound(
    payload: &[u8],
) -> Result<Result<CrayfishDataBatch, CoreError>, TestCaseError> {
    let before = ALLOCATED.with(Cell::get);
    let outcome = CrayfishDataBatch::decode(payload);
    let spent = ALLOCATED.with(Cell::get) - before;
    prop_assert!(
        spent <= 4 * payload.len() + 256,
        "{spent} bytes allocated for a payload of {}",
        payload.len()
    );
    Ok(outcome)
}

/// The wire form of a `[bsz, item]` batch of the values with these bits
/// (those that are not finite replaced), by the program's own encoder.
fn encoded(bits: &[u32], bsz: usize) -> (Tensor, Vec<u8>) {
    let item = bits.len() / bsz;
    let values: Vec<f32> = bits[..bsz * item]
        .iter()
        .map(|&b| {
            Some(f32::from_bits(b))
                .filter(|v| v.is_finite())
                .unwrap_or(0.25)
        })
        .collect();
    let t = Tensor::from_vec([bsz, item], values).unwrap();
    let payload = CrayfishDataBatch::from_tensor(9, 1727445623123.456, &t)
        .encode()
        .unwrap();
    (t, payload.to_vec())
}

/// A payload holding the single `data` element `token`.
fn holding(token: &str) -> Vec<u8> {
    format!(r#"{{"id":1,"created_ms":0.5,"shape":[1],"bsz":1,"data":[{token}]}}"#).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..512)) {
        decode_within_bound(&bytes)?.ok();
    }

    /// JSON-looking noise gets further into the scanner than random bytes.
    #[test]
    fn arbitrary_json_like_text_never_panics(picks in vec(any::<u8>(), 0..200)) {
        const PIECES: [&str; 24] = [
            "{", "}", "[", "]", ",", ":", " ", "\"", "\\", "\"id\"", "\"data\"", "\"shape\"",
            "\"bsz\"", "\"created_ms\"", "0", "1", "-", ".", "e", "25", "null", "true", "\\u00e9", "\n",
        ];
        let text: String = picks.iter().map(|&p| PIECES[p as usize % PIECES.len()]).collect();
        decode_within_bound(text.as_bytes())?.ok();
    }

    #[test]
    fn every_finite_f32_round_trips(
        bits in vec(any::<u32>(), 1..40),
        bsz in 1usize..4,
    ) {
        prop_assume!(bits.len() >= bsz);
        let mut bits = bits;
        // Always among them: negative zero, the smallest and largest
        // subnormal, the smallest normal, the largest finite value.
        for (slot, edge) in bits.iter_mut().zip([0x8000_0000, 1, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff]) {
            *slot = edge;
        }
        let (t, payload) = encoded(&bits, bsz);
        let back = decode_within_bound(&payload)?.unwrap();
        prop_assert_eq!(back.created_ms.to_bits(), 1727445623123.456f64.to_bits());
        let tensor = back.into_tensor().unwrap();
        let same = tensor.data().iter().zip(t.data()).all(|(a, b)| a.to_bits() == b.to_bits());
        prop_assert!(same && tensor.shape() == t.shape(), "{:?} != {:?}", tensor, t);
    }

    #[test]
    fn truncated_payloads_are_refused(bits in vec(any::<u32>(), 1..12)) {
        let (_, payload) = encoded(&bits, 1);
        for cut in 0..payload.len() {
            prop_assert!(decode_within_bound(&payload[..cut])?.is_err(), "cut at {}", cut);
        }
    }

    #[test]
    fn overwritten_payloads_never_panic(
        bits in vec(any::<u32>(), 1..12),
        edits in vec((any::<u32>(), any::<u8>()), 1..4),
    ) {
        let (_, mut payload) = encoded(&bits, 1);
        for (at, byte) in edits {
            let at = at as usize % payload.len();
            payload[at] = byte;
        }
        decode_within_bound(&payload)?.ok();
    }

    /// A count far beyond the payload is refused without being allocated
    /// for, whether it is known before `data` is read or only after.
    #[test]
    fn inflated_counts_are_refused(
        bits in vec(any::<u32>(), 1..12),
        claim in 1u64..(1 << 60),
        (in_shape, data_first) in (any::<bool>(), any::<bool>()),
    ) {
        let (t, _) = encoded(&bits, 1);
        prop_assume!(claim != t.numel() as u64);
        let (bsz, item) = if in_shape { (1, claim) } else { (claim, 1) };
        let data: Vec<String> = t.data().iter().map(|v| format!("{v:?}")).collect();
        let data = format!("\"data\":[{}]", data.join(","));
        let sizes = format!("\"shape\":[{item}],\"bsz\":{bsz}");
        let payload = if data_first {
            format!("{{\"id\":1,\"created_ms\":0,{data},{sizes}}}")
        } else {
            format!("{{\"id\":1,\"created_ms\":0,{sizes},{data}}}")
        };
        prop_assert!(decode_within_bound(payload.as_bytes())?.is_err());
    }

    /// Any decimal the grammar allows — 1 to 20 digits, a fraction and an
    /// exponent or neither — reads as `str::parse` reads it, bit for bit.
    #[test]
    fn every_token_reads_as_str_parse_does(
        (negative, digits) in (any::<bool>(), vec(0u8..10, 1..21)),
        point in 0usize..21,
        exponent in (any::<bool>(), -60i32..60, 0u8..3),
    ) {
        let digits: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
        let (whole, fraction) = digits.split_at(point.min(digits.len() - 1).max(1).min(digits.len()));
        // No leading zero on a whole part of several digits.
        let whole = match whole.trim_start_matches('0') {
            "" => "0",
            trimmed => trimmed,
        };
        let mut token = format!("{}{whole}", if negative { "-" } else { "" });
        if !fraction.is_empty() {
            token.push('.');
            token.push_str(fraction);
        }
        if let (true, e, form) = exponent {
            token.push_str(&match form {
                0 => format!("e{e}"),
                1 => format!("E{e:+}"),
                _ => format!("e{e:+03}"),
            });
        }
        let want: f32 = token.parse().unwrap();
        let got = decode_within_bound(&holding(&token))?.unwrap().data[0];
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", token);
    }
}

/// The densest text there is — one digit and a comma an element — in the
/// widest element type, with and without the sizes ahead of `data`.
#[test]
fn dense_arrays_stay_within_the_bound() {
    let ones = vec!["1"; 10_000].join(",");
    let payloads = [
        format!(r#"{{"id":1,"created_ms":0,"shape":[{ones}],"bsz":1,"data":[1]}}"#),
        format!(r#"{{"id":1,"created_ms":0,"shape":[10000],"bsz":1,"data":[{ones}]}}"#),
        format!(r#"{{"data":[{ones}],"id":1,"created_ms":0,"shape":[10000],"bsz":1}}"#),
        format!(r#"{{"data":[{ones} , 1],"id":1,"created_ms":0,"shape":[10000],"bsz":1}}"#),
        format!(r#"{{"id":1,"created_ms":0,"shape":[10000],"bsz":1,"data":[{ones},1]}}"#),
    ];
    let outcomes: Vec<bool> = payloads
        .iter()
        .map(|p| decode_within_bound(p.as_bytes()).unwrap().is_ok())
        .collect();
    assert_eq!(outcomes, [true, true, true, false, false]);
}

/// Unknown values are skipped without recursion, to a fixed depth.
#[test]
fn skipped_values_nest_to_a_fixed_depth() {
    for (depth, accepted) in [(1, true), (128, true), (129, false), (100_000, false)] {
        let nested = format!("{}{}", "[{\"k\":".repeat(depth / 2), "[".repeat(depth % 2));
        let closing = format!("{}{}", "]".repeat(depth % 2), "}]".repeat(depth / 2));
        let payload = format!(
            r#"{{"x":{nested}0{closing},"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1]}}"#
        );
        let outcome = decode_within_bound(payload.as_bytes()).unwrap();
        assert_eq!(outcome.is_ok(), accepted, "depth {depth}: {outcome:?}");
    }
}
