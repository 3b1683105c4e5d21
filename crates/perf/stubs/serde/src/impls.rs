//! `Serialize`/`Deserialize` for the std types derived impls are built from.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use crate::json::{Parser, Result, Writer};
use crate::{Deserialize, Serialize};

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.unsigned(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
                let v = p.unsigned()?;
                <$t>::try_from(v).or_else(|_| p.error("integer out of range"))
            }
        }
        impl MapKey for $t {
            fn write_key(&self, out: &mut Writer) {
                out.key(&self.to_string());
            }
            fn read_key(key: &str) -> Option<Self> {
                key.parse().ok()
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.signed(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
                let v = p.signed()?;
                <$t>::try_from(v).or_else(|_| p.error("integer out of range"))
            }
        }
        impl MapKey for $t {
            fn write_key(&self, out: &mut Writer) {
                out.key(&self.to_string());
            }
            fn read_key(key: &str) -> Option<Self> {
                key.parse().ok()
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn serialize(&self, out: &mut Writer) {
        out.float(*self);
    }
}
impl Deserialize for f32 {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        p.f32()
    }
}
impl Serialize for f64 {
    fn serialize(&self, out: &mut Writer) {
        out.float(*self);
    }
}
impl Deserialize for f64 {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        p.f64()
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Writer) {
        out.raw(if *self { b"true" } else { b"false" });
    }
}
impl Deserialize for bool {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        p.bool()
    }
}

impl Serialize for () {
    fn serialize(&self, out: &mut Writer) {
        out.null();
    }
}
impl Deserialize for () {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        if p.null() {
            Ok(())
        } else {
            p.error("expected null")
        }
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Writer) {
        out.string(self);
    }
}
impl Serialize for String {
    fn serialize(&self, out: &mut Writer) {
        out.string(self);
    }
}
impl Deserialize for String {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        p.string().map(|s| s.into_owned())
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Writer) {
        out.string(self.encode_utf8(&mut [0; 4]));
    }
}
impl Deserialize for char {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        let s = p.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => p.error("expected a single character"),
        }
    }
}

macro_rules! pointers {
    ($($ptr:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr<T> {
            fn serialize(&self, out: &mut Writer) {
                (**self).serialize(out);
            }
        }
        impl<T: Deserialize> Deserialize for $ptr<T> {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
                T::deserialize(p).map($ptr::new)
            }
        }
    )*};
}
pointers!(Box, Arc, Rc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        if p.null() {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }
    fn if_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Writer) {
        out.begin_array();
        for v in self {
            out.elem();
            v.serialize(out);
        }
        out.end_array();
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Writer) {
        self.as_slice().serialize(out);
    }
}
impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Writer) {
        self.as_slice().serialize(out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        p.begin_array()?;
        let mut out = Vec::new();
        while p.next_elem(out.is_empty())? {
            out.push(T::deserialize(p)?);
        }
        Ok(out)
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        let items = Vec::<T>::deserialize(p)?;
        <[T; N]>::try_from(items).or_else(|_| p.error(format!("expected {N} elements")))
    }
}

macro_rules! tuples {
    ($(($($name:ident $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Writer) {
                out.begin_array();
                $(out.elem(); self.$idx.serialize(out);)+
                out.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
                p.begin_array()?;
                let value = ($({
                    p.tuple_elem($idx == 0)?;
                    $name::deserialize(p)?
                },)+);
                p.end_array()?;
                Ok(value)
            }
        }
    )*};
}
tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// A type JSON can use as an object key: written and read as a string.
pub trait MapKey: Sized {
    fn write_key(&self, out: &mut Writer);
    fn read_key(key: &str) -> Option<Self>;
}

impl MapKey for String {
    fn write_key(&self, out: &mut Writer) {
        out.key(self);
    }
    fn read_key(key: &str) -> Option<Self> {
        Some(key.to_string())
    }
}

fn write_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut Writer,
) {
    out.begin_object();
    for (k, v) in entries {
        k.write_key(out);
        v.serialize(out);
    }
    out.end_object();
}

fn read_map<K: MapKey, V: Deserialize>(
    p: &mut Parser<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<()> {
    p.object(|p, key| match K::read_key(key) {
        Some(k) => {
            insert(k, V::deserialize(p)?);
            Ok(())
        }
        None => p.error(format!("invalid map key `{key}`")),
    })
}

impl<K: MapKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut Writer) {
        write_map(self.iter(), out);
    }
}
impl<K: MapKey + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        let mut map = HashMap::default();
        read_map(p, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Writer) {
        write_map(self.iter(), out);
    }
}
impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        let mut map = BTreeMap::new();
        read_map(p, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl Serialize for Duration {
    fn serialize(&self, out: &mut Writer) {
        out.begin_object();
        out.key("secs");
        out.unsigned(self.as_secs());
        out.key("nanos");
        out.unsigned(u64::from(self.subsec_nanos()));
        out.end_object();
    }
}
impl Deserialize for Duration {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self> {
        let (mut secs, mut nanos) = (None, None);
        p.object(|p, key| {
            match key {
                "secs" => secs = Some(u64::deserialize(p)?),
                "nanos" => nanos = Some(u32::deserialize(p)?),
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        match (secs, nanos) {
            (Some(s), Some(n)) => Ok(Duration::new(s, n)),
            _ => p.error("duration needs `secs` and `nanos`"),
        }
    }
}
