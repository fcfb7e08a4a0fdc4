//! Strict field parsing shared by the config text codecs.
//!
//! Every config type that is written to text — [`NetModelKind`],
//! [`ServiceMode`], [`FaultSpec`] here, `RunSpec` in `emx-sweep` — has
//! exactly one `Display`/`FromStr` pair, and every file format (journal,
//! cache key, provenance sidecar, fuzz case) and CLI flag goes through it.
//! The record-shaped ones are lists of `name<sep>value` fields; [`fields`]
//! splits such a list so that a missing, repeated or unknown field is an
//! error naming the field, and [`num`]/[`opt`] parse each value at its own
//! width, so an out-of-range number is rejected instead of truncated;
//! [`none_or`] renders the optional fields [`opt`] reads.
//!
//! [`NetModelKind`]: crate::NetModelKind
//! [`ServiceMode`]: crate::ServiceMode
//! [`FaultSpec`]: crate::FaultSpec

use std::fmt::Display;
use std::str::FromStr;

/// Split `tokens`, each `name<kv>value`, into the values of the `N`
/// whitespace-separated `names`, in that order. Every name must appear
/// exactly once and no other may.
pub fn fields<'a, const N: usize>(
    tokens: impl IntoIterator<Item = &'a str>,
    kv: char,
    names: &str,
) -> Result<[&'a str; N], String> {
    let names: Vec<&str> = names.split_whitespace().collect();
    assert_eq!(names.len(), N, "field list {names:?} is not {N} names");
    let mut values: [Option<&'a str>; N] = [None; N];
    for token in tokens {
        let (name, value) = token
            .split_once(kv)
            .ok_or_else(|| format!("token {token:?} is not name{kv}value"))?;
        let i = names
            .iter()
            .position(|n| *n == name)
            .ok_or_else(|| format!("unknown field {name:?}"))?;
        if values[i].replace(value).is_some() {
            return Err(format!("duplicate field {name:?}"));
        }
    }
    let mut out = [""; N];
    for ((slot, value), name) in out.iter_mut().zip(values).zip(names) {
        *slot = value.ok_or_else(|| format!("missing field {name:?}"))?;
    }
    Ok(out)
}

/// Parse field `name`'s `value` as a `T`, naming the field and type on
/// failure (`"4294967296"` is not a `u32`).
pub fn num<T: FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{name} {value:?} is not a {}", std::any::type_name::<T>()))
}

/// Render an optional field: the value, or `none`. Inverse of [`opt`].
pub fn none_or(value: Option<impl Display>) -> String {
    value.map_or_else(|| "none".into(), |v| v.to_string())
}

/// [`num`] for an optional field, where `none` is `None`.
pub fn opt<T: FromStr>(name: &str, value: &str) -> Result<Option<T>, String> {
    match value {
        "none" => Ok(None),
        v => num(name, v).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_reject_missing_repeated_and_unknown_names() {
        let split = |s: &'static str| fields(s.split(','), ':', "a b");
        assert_eq!(split("b:2,a:1"), Ok(["1", "2"]));
        assert_eq!(split("a:1"), Err("missing field \"b\"".into()));
        assert_eq!(split("a:1,a:1,b:2"), Err("duplicate field \"a\"".into()));
        assert_eq!(split("a:1,b:2,c:3"), Err("unknown field \"c\"".into()));
        assert_eq!(split("a:1,b"), Err("token \"b\" is not name:value".into()));
    }

    #[test]
    fn numbers_parse_at_their_own_width() {
        assert_eq!(num::<u32>("drop", "4294967295"), Ok(u32::MAX));
        assert_eq!(
            num::<u32>("drop", "4294967296"),
            Err("drop \"4294967296\" is not a u32".into())
        );
        assert_eq!(opt::<u64>("seed", "none"), Ok(None));
        assert_eq!(opt::<u64>("seed", "7"), Ok(Some(7)));
        assert_eq!(none_or(Some(7)), "7");
        assert_eq!(none_or(None::<u64>), "none");
        assert!(opt::<u64>("seed", "-1").is_err());
    }
}
