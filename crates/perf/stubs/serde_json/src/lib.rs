//! Offline stand-in for `serde_json` (see ../README.md): the entry points
//! this workspace calls, over the JSON codec of the serde stand-in.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

use serde::json::{Parser, Writer};
use serde::{Deserialize, Serialize};

pub use serde::json::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Writer::new();
    value.serialize(&mut out);
    Ok(out.into_bytes())
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // The writer emits `&str` contents and ASCII punctuation only.
    String::from_utf8(to_vec(value)?).map_err(|e| Error::new(e.to_string(), 0))
}

pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    Ok(indent(&to_vec(value)?))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    String::from_utf8(to_vec_pretty(value)?).map_err(|e| Error::new(e.to_string(), 0))
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut p = Parser::new(bytes);
    let value = T::deserialize(&mut p)?;
    p.end()?;
    Ok(value)
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    from_slice(&to_vec(value)?)
}

pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    from_slice(&to_vec(&value)?)
}

/// Re-flow compact JSON with two-space indentation, as serde_json's pretty
/// printer lays it out.
fn indent(compact: &[u8]) -> Vec<u8> {
    fn newline(out: &mut Vec<u8>, depth: usize) {
        out.push(b'\n');
        out.resize(out.len() + 2 * depth, b' ');
    }
    let mut out = Vec::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in compact.iter().enumerate() {
        if in_string {
            out.push(b);
            in_string = escaped || b != b'"';
            escaped = !escaped && b == b'\\';
            continue;
        }
        match b {
            b'"' => {
                in_string = true;
                out.push(b);
            }
            b'{' | b'[' => {
                out.push(b);
                if !matches!(compact.get(i + 1), Some(b'}' | b']')) {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            b'}' | b']' => {
                if !matches!(compact.get(i.wrapping_sub(1)), Some(b'{' | b'[')) {
                    depth = depth.saturating_sub(1);
                    newline(&mut out, depth);
                }
                out.push(b);
            }
            b',' => {
                out.push(b);
                newline(&mut out, depth);
            }
            b':' => out.extend_from_slice(b": "),
            _ => out.push(b),
        }
    }
    out
}

/// Any JSON value. Numbers are kept as `f64`; whole ones print without a
/// fraction.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().filter(|n| n.fract() == 0.0).map(|n| n as i64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => b.serialize(out),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => out.signed(*n as i64),
            Value::Number(n) => out.float(*n),
            Value::String(s) => out.string(s),
            Value::Array(items) => items.serialize(out),
            Value::Object(map) => map.serialize(out),
        }
    }
}

impl Deserialize for Value {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        match p.peek() {
            Some(b'{') => Deserialize::deserialize(p).map(Value::Object),
            Some(b'[') => Deserialize::deserialize(p).map(Value::Array),
            Some(b'"') => Deserialize::deserialize(p).map(Value::String),
            Some(b't' | b'f') => p.bool().map(Value::Bool),
            Some(b'n') if p.null() => Ok(Value::Null),
            _ => p.f64().map(Value::Number),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self).map_err(|_| fmt::Error)?)
    }
}

/// Build a [`Value`] from JSON-like syntax. Keys are string literals;
/// values are `null`, nested `{..}` / `[..]`, or any `Serialize`
/// expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($items:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_items!(items; $($items)*);
        $crate::Value::Array(items)
    }};
    ({ $($members:tt)* }) => {{
        #[allow(unused_mut)]
        let mut map = ::std::collections::BTreeMap::<::std::string::String, $crate::Value>::new();
        $crate::json_members!(map; $($members)*);
        $crate::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).unwrap_or_default()
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_members {
    ($map:ident;) => {};
    ($map:ident; $key:literal : null $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::Value::Null);
        $crate::json_members!($map; $($($rest)*)?);
    };
    ($map:ident; $key:literal : { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!({ $($v)* }));
        $crate::json_members!($map; $($($rest)*)?);
    };
    ($map:ident; $key:literal : [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($key.to_string(), $crate::json!([ $($v)* ]));
        $crate::json_members!($map; $($($rest)*)?);
    };
    ($map:ident; $key:literal : $v:expr , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!($v));
        $crate::json_members!($map; $($rest)*);
    };
    ($map:ident; $key:literal : $v:expr) => {
        $map.insert($key.to_string(), $crate::json!($v));
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($items:ident;) => {};
    ($items:ident; null $(, $($rest:tt)*)?) => {
        $items.push($crate::Value::Null);
        $crate::json_items!($items; $($($rest)*)?);
    };
    ($items:ident; { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $items.push($crate::json!({ $($v)* }));
        $crate::json_items!($items; $($($rest)*)?);
    };
    ($items:ident; [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $items.push($crate::json!([ $($v)* ]));
        $crate::json_items!($items; $($($rest)*)?);
    };
    ($items:ident; $v:expr , $($rest:tt)*) => {
        $items.push($crate::json!($v));
        $crate::json_items!($items; $($rest)*);
    };
    ($items:ident; $v:expr) => {
        $items.push($crate::json!($v));
    };
}
