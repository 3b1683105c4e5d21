//! The scanner behind [`CrayfishDataBatch::decode`]: one pass over the
//! paper's JSON wire form, directed by the batch's fixed schema, that parses
//! `data` straight into the vector the input tensor will own.
//!
//! It is total — any byte string yields a batch or a [`CoreError::Codec`] —
//! and bounded: nothing is allocated for a count the remaining bytes cannot
//! hold. The object's keys may come in any order with JSON whitespace
//! between tokens; unknown keys are validated and skipped; a duplicate or
//! missing key, anything but whitespace after the closing brace, and every
//! number outside the JSON grammar (`nan`, `.5`, `1.`, `+1`, `01`) are
//! refused. Strings are checked the way `serde_json` checks one it skips
//! (terminated, no raw control character, well-formed escapes) and compared
//! as raw bytes, so a key spelled with escapes names no field.

use super::{element_count, CrayfishDataBatch};
use crate::error::CoreError;
use crate::Result;

/// How deep a skipped value may nest — `serde_json`'s limit for the values
/// it builds. One bit per open container then fits a `u128`.
const MAX_DEPTH: u32 = 128;

/// Integers below this are exact in `f64`.
const EXACT_MANTISSA: u64 = 1 << 53;

/// `10^k` for `k <= 22`, each exact in `f64`: `10^22 = 2^22 * 5^22` and
/// `5^22 < 2^53`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The fraction bits an `f64` has below the last bit of an `f32`, and their
/// value halfway between two adjacent `f32`s.
const BELOW_F32: u64 = (1 << 29) - 1;
const HALFWAY: u64 = 1 << 28;

/// A cursor over the payload; `pos <= buf.len()` throughout.
struct Scanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A number token that passed the JSON grammar, with its decimal parts.
struct Number {
    /// Where the token starts; it ends at the cursor.
    start: usize,
    negative: bool,
    /// All digits before the exponent as one integer, if `exact`.
    mantissa: u64,
    /// The power of ten `mantissa` is scaled by, if `exact`.
    exp10: i32,
    /// Whether `mantissa` and `exp10` hold the token's value, with
    /// `mantissa` below 2^53.
    exact: bool,
}

/// Parse one wire payload.
pub(super) fn decode_batch(bytes: &[u8]) -> Result<CrayfishDataBatch> {
    let mut s = Scanner { buf: bytes, pos: 0 };
    let (mut id, mut created_ms, mut shape, mut bsz, mut data) = (None, None, None, None, None);

    s.take(b'{')?;
    let mut more = s.peek() != Some(b'}');
    while more {
        let key = s.string()?;
        s.take(b':')?;
        s.skip_ws();
        match key {
            // (Closures, not `Scanner::unsigned`: crayfish-lint follows calls.)
            b"id" => s.fill(&mut id, key, |s| s.unsigned())?,
            b"created_ms" => s.fill(&mut created_ms, key, |s| s.f64())?,
            b"bsz" => s.fill(&mut bsz, key, |s| s.index())?,
            b"shape" => s.fill(&mut shape, key, |s| s.array(None, |s| s.index()))?,
            b"data" => {
                // Both encoders put `bsz` and `shape` first: the vector is
                // then sized once, and a count the rest of the payload is
                // too short for (two bytes an element) ends the parse here.
                let expected = match (bsz, &shape) {
                    (Some(bsz), Some(shape)) => match element_count(bsz, shape) {
                        Some(n) if n <= s.rest().len() / 2 + 1 => Some(n),
                        _ => return s.fail("`data` cannot hold bsz × shape values"),
                    },
                    _ => None,
                };
                s.fill(&mut data, key, |s| s.array(expected, |s| s.f32()))?;
            }
            _ => s.skip_value()?,
        }
        more = match s.peek() {
            Some(b',') => true,
            Some(b'}') => false,
            _ => return s.fail("expected `,` or `}`"),
        };
        s.pos += usize::from(more);
    }
    s.pos += 1;
    if s.peek().is_some() {
        return s.fail("trailing bytes");
    }

    let missing = |name: &str| CoreError::Codec(format!("batch decode: missing field `{name}`"));
    let batch = CrayfishDataBatch {
        id: id.ok_or_else(|| missing("id"))?,
        created_ms: created_ms.ok_or_else(|| missing("created_ms"))?,
        shape: shape.ok_or_else(|| missing("shape"))?,
        bsz: bsz.ok_or_else(|| missing("bsz"))?,
        data: data.ok_or_else(|| missing("data"))?,
    };
    batch.check_count()?;
    Ok(batch)
}

impl<'a> Scanner<'a> {
    #[cold]
    #[inline(never)]
    fn fail<T>(&self, what: &str) -> Result<T> {
        Err(CoreError::Codec(format!(
            "batch decode: {what} at byte {}",
            self.pos
        )))
    }

    #[inline(always)]
    fn cur(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.cur() {
            self.pos += 1;
        }
    }

    /// The next significant byte, not consumed.
    #[inline(always)]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.cur()
    }

    fn take(&mut self, byte: u8) -> Result<()> {
        if self.peek() != Some(byte) {
            return self.fail(match byte {
                b'{' => "expected `{`",
                b'[' => "expected `[`",
                b':' => "expected `:`",
                _ => "expected `\"`",
            });
        }
        self.pos += 1;
        Ok(())
    }

    /// Parse the value of field `key` into its slot, once.
    fn fill<T>(
        &mut self,
        slot: &mut Option<T>,
        key: &[u8],
        value: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<()> {
        if slot.is_some() {
            return Err(CoreError::Codec(format!(
                "batch decode: duplicate field `{}` at byte {}",
                String::from_utf8_lossy(key),
                self.pos
            )));
        }
        *slot = Some(value(self)?);
        Ok(())
    }

    /// A string; returns the raw bytes between its quotes.
    fn string(&mut self) -> Result<&'a [u8]> {
        self.take(b'"')?;
        let start = self.pos;
        loop {
            let byte = self.cur();
            self.pos += usize::from(byte.is_some());
            match byte {
                None => return self.fail("unterminated string"),
                Some(b'"') => return Ok(self.buf.get(start..self.pos - 1).unwrap_or_default()),
                Some(b'\\') => {
                    let hex = match self.cur() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => 0,
                        Some(b'u') => 4,
                        _ => return self.fail("invalid escape"),
                    };
                    self.pos += 1;
                    for _ in 0..hex {
                        if !self.cur().is_some_and(|b| b.is_ascii_hexdigit()) {
                            return self.fail("invalid escape");
                        }
                        self.pos += 1;
                    }
                }
                Some(0..=0x1f) => return self.fail("control character in a string"),
                Some(_) => {}
            }
        }
    }

    /// `[elem, ..]` into a vector allocated once: for `expected` elements
    /// when the caller knows the count, else for as many as the array has
    /// commas. An array longer than `expected` is refused where it exceeds
    /// it.
    fn array<T>(
        &mut self,
        expected: Option<usize>,
        elem: impl Fn(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        self.take(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Vec::new());
        }
        let room = expected.unwrap_or_else(|| {
            let commas = self.rest().iter().take_while(|&&b| b != b']');
            commas.filter(|&&b| b == b',').count() + 1
        });
        let mut out = Vec::with_capacity(room);
        loop {
            if out.len() == room {
                return self.fail("more values than bsz × shape");
            }
            self.skip_ws();
            out.push(elem(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }

    /// An unsigned integer: digits only, no leading zero, within `u64`.
    fn unsigned(&mut self) -> Result<u64> {
        let start = self.pos;
        let mut value = 0u64;
        while let Some(d @ b'0'..=b'9') = self.cur() {
            let next = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            let Some(next) = next else {
                return self.fail("integer out of range");
            };
            value = next;
            self.pos += 1;
        }
        match self.pos - start {
            0 => self.fail("expected an unsigned integer"),
            1 => Ok(value),
            _ if self.buf.get(start) == Some(&b'0') => self.fail("leading zero"),
            _ => Ok(value),
        }
    }

    fn index(&mut self) -> Result<usize> {
        let value = self.unsigned()?;
        usize::try_from(value).or_else(|_| self.fail("integer out of range"))
    }

    /// Consume a run of digits, shifting each into `acc` (which wraps past
    /// 19 of them); returns the run's length.
    #[inline(always)]
    fn digits(&mut self, acc: &mut u64) -> usize {
        let (start, mut value) = (self.pos, *acc);
        let mut pos = start;
        while let Some(d @ b'0'..=b'9') = self.buf.get(pos) {
            value = value.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            pos += 1;
        }
        (self.pos, *acc) = (pos, value);
        pos - start
    }

    /// One token of `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    /// Always inlined, like the other per-byte helpers: in the `data` loop
    /// the cursor then lives in a register, not behind `&mut self`.
    #[inline(always)]
    fn number(&mut self) -> Result<Number> {
        let start = self.pos;
        let negative = self.cur() == Some(b'-');
        self.pos += usize::from(negative);

        let mut mantissa = 0u64;
        let leading_zero = self.cur() == Some(b'0');
        let whole = self.digits(&mut mantissa);
        if whole == 0 {
            return self.fail("expected a number");
        }
        if leading_zero && whole > 1 {
            return self.fail("leading zero");
        }
        let mut places = 0;
        if self.cur() == Some(b'.') {
            self.pos += 1;
            places = self.digits(&mut mantissa);
            if places == 0 {
                return self.fail("expected a digit after `.`");
            }
        }
        // Nineteen digits cannot wrap a `u64`, nine cannot wrap an `i32`;
        // whatever is longer is left to `str::parse`.
        let mut exact = whole + places <= 19 && mantissa < EXACT_MANTISSA;
        let mut exp10 = -(places.min(19) as i32);
        if let Some(b'e' | b'E') = self.cur() {
            self.pos += 1;
            let down = self.cur() == Some(b'-');
            self.pos += usize::from(down || self.cur() == Some(b'+'));
            let mut e = 0u64;
            let len = self.digits(&mut e);
            if len == 0 {
                return self.fail("expected a digit in the exponent");
            }
            exact &= len <= 9;
            let e = if len <= 9 { e as i32 } else { 0 };
            exp10 += if down { -e } else { e };
        }
        Ok(Number {
            start,
            negative,
            mantissa,
            exp10,
            exact,
        })
    }

    /// The text of the number that started at `start`.
    fn token(&self, start: usize) -> Result<&'a str> {
        let bytes = self.buf.get(start..self.pos).unwrap_or_default();
        std::str::from_utf8(bytes).or_else(|_| self.fail("malformed number"))
    }

    fn f64(&mut self) -> Result<f64> {
        let number = self.number()?;
        let text = self.token(number.start)?;
        text.parse().or_else(|_| self.fail("malformed number"))
    }

    /// A number as the `f32` its token parses to. When the digits form an
    /// integer below 2^53 scaled by at most 22 decimal places either way,
    /// both operands are exact in `f64` and IEEE division (multiplication)
    /// rounds their exact quotient (product) once: `wide` is the `f64`
    /// nearest the decimal (Clinger's fast path), between 1e-22 and 1e38 and
    /// so a normal `f32` after narrowing. The decimal and `wide` then round
    /// to the same `f32` unless an `f32` rounding boundary lies between them
    /// — but every boundary is itself an `f64`, so it can only be `wide`
    /// exactly. That case and every other token go through `str::parse`.
    #[inline(always)]
    fn f32(&mut self) -> Result<f32> {
        let number = self.number()?;
        let scale = POW10.get(number.exp10.unsigned_abs() as usize);
        if let (true, Some(&scale)) = (number.exact, scale) {
            let m = number.mantissa as f64;
            let wide = if number.exp10 < 0 {
                m / scale
            } else {
                m * scale
            };
            if wide.to_bits() & BELOW_F32 != HALFWAY {
                let value = wide as f32;
                return Ok(if number.negative { -value } else { value });
            }
        }
        let text = self.token(number.start)?;
        text.parse().or_else(|_| self.fail("malformed number"))
    }

    fn literal(&mut self, word: &[u8]) -> Result<()> {
        if !self.rest().starts_with(word) {
            return self.fail("expected a value");
        }
        self.pos += word.len();
        Ok(())
    }

    /// `"key":` inside a skipped object.
    fn skipped_key(&mut self) -> Result<()> {
        self.string()?;
        self.take(b':')
    }

    /// Validate and step over one value of any type, without recursion: the
    /// open containers are a stack of bits, 1 for an object.
    fn skip_value(&mut self) -> Result<()> {
        let (mut open, mut depth) = (0u128, 0u32);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(b't') => self.literal(b"true")?,
                Some(b'f') => self.literal(b"false")?,
                Some(b'n') => self.literal(b"null")?,
                Some(bracket @ (b'[' | b'{')) => {
                    if depth == MAX_DEPTH {
                        return self.fail("nesting too deep");
                    }
                    self.pos += 1;
                    let object = bracket == b'{';
                    open = open << 1 | u128::from(object);
                    depth += 1;
                    let close = if object { b'}' } else { b']' };
                    if self.peek() != Some(close) {
                        if object {
                            self.skipped_key()?;
                        }
                        continue;
                    }
                }
                _ => return self.fail("expected a value"),
            }
            // A value has ended, or an empty container is at its close.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                let object = open & 1 == 1;
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if object {
                            self.skipped_key()?;
                        }
                        break;
                    }
                    Some(b'}') if object => {}
                    Some(b']') if !object => {}
                    _ => return self.fail("expected `,` or a closing bracket"),
                }
                self.pos += 1;
                open >>= 1;
                depth -= 1;
            }
        }
    }
}
