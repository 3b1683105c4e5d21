//! The JSON text writer and parser behind the stand-in's traits.

use std::borrow::Cow;
use std::fmt;

use crate::Deserialize;

/// A decode (or, in principle, encode) failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    at: usize,
}

impl Error {
    pub fn new(msg: impl Into<String>, at: usize) -> Error {
        Error {
            msg: msg.into(),
            at,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Appends compact JSON to a byte buffer. Separators are derived from the
/// last byte written: a key or element needs a comma unless its container
/// was just opened, and no value ends in `{` or `[`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer {
            buf: Vec::with_capacity(128),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn raw(&mut self, text: &[u8]) {
        self.buf.extend_from_slice(text);
    }

    pub fn null(&mut self) {
        self.raw(b"null");
    }

    pub fn begin_object(&mut self) {
        self.buf.push(b'{');
    }

    pub fn end_object(&mut self) {
        self.buf.push(b'}');
    }

    pub fn begin_array(&mut self) {
        self.buf.push(b'[');
    }

    pub fn end_array(&mut self) {
        self.buf.push(b']');
    }

    /// Start the next member of the open object.
    pub fn key(&mut self, name: &str) {
        if self.buf.last() != Some(&b'{') {
            self.buf.push(b',');
        }
        self.string(name);
        self.buf.push(b':');
    }

    /// Start the next element of the open array.
    pub fn elem(&mut self) {
        if self.buf.last() != Some(&b'[') {
            self.buf.push(b',');
        }
    }

    pub fn string(&mut self, s: &str) {
        self.buf.push(b'"');
        let bytes = s.as_bytes();
        let mut clean_from = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let short: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0..=0x1f => b"",
                _ => continue,
            };
            self.buf.extend_from_slice(&bytes[clean_from..i]);
            clean_from = i + 1;
            if short.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.buf.extend_from_slice(b"\\u00");
                self.buf.push(HEX[usize::from(b >> 4)]);
                self.buf.push(HEX[usize::from(b & 0xf)]);
            } else {
                self.buf.extend_from_slice(short);
            }
        }
        self.buf.extend_from_slice(&bytes[clean_from..]);
        self.buf.push(b'"');
    }

    pub fn unsigned(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&digits[i..]);
    }

    pub fn signed(&mut self, v: i64) {
        if v < 0 {
            self.buf.push(b'-');
        }
        self.unsigned(v.unsigned_abs());
    }

    /// Shortest text that reads back as the same float (`{:?}` keeps the
    /// `.0` of whole numbers, as serde_json does); `null` when not finite.
    pub fn float(&mut self, v: impl fmt::Debug + Into<f64> + Copy) {
        use std::io::Write;
        if Into::<f64>::into(v).is_finite() {
            let _ = write!(self.buf, "{v:?}");
        } else {
            self.null();
        }
    }

    /// An internally tagged newtype variant: the inner value's object with
    /// the tag as its first member.
    pub fn tagged(&mut self, tag: &str, variant: &str, inner: impl FnOnce(&mut Writer)) {
        self.begin_object();
        self.key(tag);
        self.string(variant);
        let mut body = Writer::new();
        inner(&mut body);
        match body.buf.as_slice() {
            [b'{', members @ .., b'}'] => {
                if !members.is_empty() {
                    self.buf.push(b',');
                    self.buf.extend_from_slice(members);
                }
            }
            // Not an object (serde rejects this at run time too); keep the
            // output well-formed.
            other => {
                self.key("value");
                self.buf.extend_from_slice(other);
            }
        }
        self.end_object();
    }
}

/// A cursor over JSON text.
#[derive(Debug, Clone)]
pub struct Parser<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub fn new(buf: &'a [u8]) -> Parser<'a> {
        Parser { buf, pos: 0 }
    }

    pub fn error<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(Error::new(msg, self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.buf.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next significant byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.buf.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected `{}`", byte as char))
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn eat_word(&mut self, word: &[u8]) -> bool {
        self.skip_ws();
        let hit = self.buf[self.pos..].starts_with(word);
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Nothing but whitespace may follow a top-level value.
    pub fn end(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.error("trailing characters"),
        }
    }

    pub fn null(&mut self) -> bool {
        self.eat_word(b"null")
    }

    pub fn bool(&mut self) -> Result<bool> {
        if self.eat_word(b"true") {
            Ok(true)
        } else if self.eat_word(b"false") {
            Ok(false)
        } else {
            self.error("expected a boolean")
        }
    }

    /// The text of the number at the cursor.
    fn number(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.buf.get(self.pos) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.error("expected a number");
        }
        // Only ASCII bytes were accepted above.
        std::str::from_utf8(&self.buf[start..self.pos]).or_else(|_| self.error("expected a number"))
    }

    pub fn unsigned(&mut self) -> Result<u64> {
        self.skip_ws();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(&d @ b'0'..=b'9') = self.buf.get(self.pos) {
            v = match v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
            {
                Some(v) => v,
                None => return self.error("integer out of range"),
            };
            self.pos += 1;
        }
        match self.buf.get(self.pos) {
            _ if start == self.pos => self.error("expected an unsigned integer"),
            Some(b'.' | b'e' | b'E') => self.error("expected an integer, found a float"),
            _ => Ok(v),
        }
    }

    pub fn signed(&mut self) -> Result<i64> {
        if self.eat(b'-') {
            let magnitude = self.unsigned()?;
            0i64.checked_sub_unsigned(magnitude)
                .map_or_else(|| self.error("integer out of range"), Ok)
        } else {
            let v = self.unsigned()?;
            i64::try_from(v).or_else(|_| self.error("integer out of range"))
        }
    }

    pub fn f64(&mut self) -> Result<f64> {
        let text = self.number()?;
        text.parse().or_else(|_| self.error("malformed number"))
    }

    pub fn f32(&mut self) -> Result<f32> {
        let text = self.number()?;
        text.parse().or_else(|_| self.error("malformed number"))
    }

    /// A string, borrowed from the input unless it contains escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.buf.get(self.pos) {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    let text = std::str::from_utf8(&self.buf[start..self.pos])
                        .or_else(|_| self.error("string is not UTF-8"))?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(text));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        let mut out = self.buf[start..self.pos].to_vec();
        loop {
            match self.buf.get(self.pos).copied() {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map(Cow::Owned)
                        .or_else(|_| self.error("string is not UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.buf.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let c = self.unicode_escape()?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return self.error("invalid escape"),
                    }
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .buf
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok());
        match digits {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.error("invalid \\u escape"),
        }
    }

    /// The code point after `\u`, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.buf[self.pos..].starts_with(b"\\u") {
                return self.error("lone surrogate");
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return self.error("lone surrogate");
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).map_or_else(|| self.error("invalid code point"), Ok)
    }

    pub fn begin_array(&mut self) -> Result<()> {
        self.expect(b'[')
    }

    /// Move to the next element of the open array; `false` once it closes.
    /// `first` is true for the call that follows `begin_array`.
    pub fn next_elem(&mut self, first: bool) -> Result<bool> {
        if self.eat(b']') {
            return Ok(false);
        }
        if !first {
            self.expect(b',')?;
        }
        Ok(true)
    }

    /// Like [`Parser::next_elem`] for a tuple: the element must exist.
    pub fn tuple_elem(&mut self, first: bool) -> Result<()> {
        if self.next_elem(first)? {
            Ok(())
        } else {
            self.error("tuple is too short")
        }
    }

    pub fn end_array(&mut self) -> Result<()> {
        self.expect(b']')
    }

    /// Walk the object at the cursor, handing each key to `member`, which
    /// must consume the member's value.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Parser<'a>, &str) -> Result<()>,
    ) -> Result<()> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, &key)?;
            if self.eat(b'}') {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    /// Consume any one value.
    pub fn skip_value(&mut self) -> Result<()> {
        match self.peek() {
            Some(b'{') => self.object(|p, _| p.skip_value()),
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_elem(first)? {
                    self.skip_value()?;
                    first = false;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') if self.null() => Ok(()),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.error("expected a value"),
        }
    }

    /// Open an externally tagged enum value: `"Name"` gives
    /// `(name, false)`; `{"Name": <content>}` gives `(name, true)` with the
    /// cursor on the content, and [`Parser::end_variant`] closes it.
    pub fn begin_variant(&mut self) -> Result<(Cow<'a, str>, bool)> {
        if self.eat(b'{') {
            let name = self.string()?;
            self.expect(b':')?;
            Ok((name, true))
        } else {
            Ok((self.string()?, false))
        }
    }

    pub fn end_variant(&mut self, boxed: bool) -> Result<()> {
        if boxed {
            self.expect(b'}')
        } else {
            Ok(())
        }
    }

    /// A unit variant written in the object form carries `null`.
    pub fn unit_content(&mut self, boxed: bool) -> Result<()> {
        if !boxed || self.null() {
            Ok(())
        } else {
            self.error("expected null for a unit variant")
        }
    }

    /// A variant with content must come in the object form.
    pub fn need_content(&self, boxed: bool) -> Result<()> {
        if boxed {
            Ok(())
        } else {
            self.error("expected a variant with content, found a bare name")
        }
    }

    /// The string under `tag` in the object at the cursor, which stays
    /// where it is: an internally tagged enum reads its tag first, then
    /// parses the same object as the variant it names.
    pub fn find_tag(&self, tag: &str) -> Result<String> {
        let mut scan = self.clone();
        let mut found = None;
        scan.object(|p, key| {
            if key == tag && found.is_none() {
                found = Some(p.string()?.into_owned());
                Ok(())
            } else {
                p.skip_value()
            }
        })?;
        found.map_or_else(|| self.error(format!("missing tag `{tag}`")), Ok)
    }
}

/// The value of a struct field whose key was absent.
pub fn missing<T: Deserialize>(field: &str) -> Result<T> {
    T::if_missing().ok_or_else(|| Error::new(format!("missing field `{field}`"), 0))
}

pub fn unknown_variant<T>(name: &str, at: &Parser<'_>) -> Result<T> {
    at.error(format!("unknown variant `{name}`"))
}
