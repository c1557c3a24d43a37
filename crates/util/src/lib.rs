//! # seacma-util
//!
//! The workspace's std-only infrastructure substrate. By policy this repo
//! builds **hermetically** — `cargo build --release --offline` with no
//! registry access — so everything external dependencies used to provide
//! lives here instead:
//!
//! * [`json`] — a JSON [`json::Value`] tree, compact/pretty serializers, a
//!   parser, and the [`json::ToJson`]/[`json::FromJson`] trait pair plus
//!   the [`impl_json_struct!`]/[`impl_json_enum!`]/[`impl_json_newtype!`]
//!   derive-replacement macros (replaces `serde` + `serde_json`).
//! * [`prop`] — a seeded deterministic generator and the [`forall!`]
//!   property-test macro (replaces `proptest`).
//! * [`sym`] — world-level symbol interning: [`sym::SymbolArena`] /
//!   [`sym::SharedArena`] hand out dense `u32` symbols in deterministic
//!   first-seen order with a byte-identical JSON snapshot.
//! * `alloc` (feature `count-alloc`) — a counting global allocator so
//!   the benchmark's traced binary can report per-phase allocation counts
//!   (which `scripts/verify.sh` gates).
//!
//! Concurrency needs are covered by `std` directly (`std::sync::mpsc`,
//! `std::sync::Mutex`, `std::thread::scope` — see
//! `seacma-crawler::farm`), so there is no crossbeam/parking_lot shim.

#[cfg(feature = "count-alloc")]
pub mod alloc;
pub mod json;
pub mod prop;
pub mod sym;

/// Resolves a `workers` knob into an actual thread count: `0` means "use
/// the machine's available parallelism", anything else is taken verbatim.
///
/// Every parallel stage in the workspace (crawl farm, milking simulate
/// phase) shares this convention *and* the guarantee that its output is
/// byte-identical at any worker count — so the fallback (4, used only
/// when the OS refuses to report a parallelism estimate) can never leak
/// into results, only into wall-clock.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        workers
    }
}

/// Implements [`json::ToJson`] + [`json::FromJson`] for a named-field
/// struct, mirroring serde's derive output: an object with one pair per
/// field, in declaration order.
///
/// ```
/// use seacma_util::impl_json_struct;
/// use seacma_util::json::{self, FromJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Campaign { name: String, domains: u32 }
/// impl_json_struct!(Campaign { name, domains });
///
/// let c = Campaign { name: "fake-av".into(), domains: 17 };
/// let text = json::to_string(&c);
/// assert_eq!(text, r#"{"name":"fake-av","domains":17}"#);
/// assert_eq!(json::from_str::<Campaign>(&text).unwrap(), c);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $( (stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                if v.as_object().is_none() {
                    return Err($crate::json::JsonError::expected(
                        concat!("object for ", stringify!($name)), v));
                }
                Ok($name {
                    $( $field: $crate::json::FromJson::from_json(
                        v.get(stringify!($field)).ok_or_else(
                            || $crate::json::JsonError::missing_field(stringify!($field)))?,
                    )?, )+
                })
            }
        }
    };
}

/// Implements [`json::ToJson`] + [`json::FromJson`] for a tuple struct
/// with one public field (a newtype), mirroring serde: the wrapper is
/// invisible and only the inner value is written.
///
/// ```
/// use seacma_util::impl_json_newtype;
/// use seacma_util::json;
///
/// #[derive(Debug, PartialEq)]
/// struct Minutes(u64);
/// impl_json_newtype!(Minutes);
///
/// assert_eq!(json::to_string(&Minutes(90)), "90");
/// assert_eq!(json::from_str::<Minutes>("90").unwrap(), Minutes(90));
/// ```
#[macro_export]
macro_rules! impl_json_newtype {
    ($name:ident) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                $crate::json::FromJson::from_json(v).map($name)
            }
        }
    };
}

/// Implements [`json::ToJson`] + [`json::FromJson`] for an enum in serde's
/// externally-tagged encoding: unit variants become `"Variant"`, newtype
/// variants `{"Variant": value}`, struct variants `{"Variant": {..}}`.
/// List every variant, each followed by a comma:
///
/// ```
/// use seacma_util::impl_json_enum;
/// use seacma_util::json;
///
/// #[derive(Debug, PartialEq)]
/// enum Verdict {
///     Clean,
///     Known(String),
///     Flagged { engines: u32, label: String },
/// }
/// impl_json_enum!(Verdict {
///     Clean,
///     Known(String),
///     Flagged { engines: u32, label: String },
/// });
///
/// assert_eq!(json::to_string(&Verdict::Clean), r#""Clean""#);
/// let v = Verdict::Flagged { engines: 12, label: "fakeav".into() };
/// let text = json::to_string(&v);
/// assert_eq!(text, r#"{"Flagged":{"engines":12,"label":"fakeav"}}"#);
/// assert_eq!(json::from_str::<Verdict>(&text).unwrap(), v);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($name:ident { $($body:tt)* }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::__json_enum_to!(self, $name, $($body)*);
                // Every variant returns above; listing all variants is the
                // macro contract (round-trip tests catch omissions).
                unreachable!("impl_json_enum! missing a variant of {}", stringify!($name))
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                $crate::__json_enum_from!(v, $name, $($body)*);
                Err($crate::json::JsonError::msg(format!(
                    "no variant of {} matches {}",
                    stringify!($name),
                    $crate::json::to_string(v)
                )))
            }
        }
    };
}

/// Implementation detail of [`impl_json_enum!`]: expands one early-return
/// block per variant of the serializer.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_to {
    ($slf:expr, $name:ident,) => {};
    // Normalize a missing trailing comma after the final variant.
    ($slf:expr, $name:ident, $variant:ident) => {
        $crate::__json_enum_to!($slf, $name, $variant,);
    };
    ($slf:expr, $name:ident, $variant:ident ( $inner:ty )) => {
        $crate::__json_enum_to!($slf, $name, $variant($inner),);
    };
    ($slf:expr, $name:ident, $variant:ident { $($field:ident : $ftype:ty),+ $(,)? }) => {
        $crate::__json_enum_to!($slf, $name, $variant { $($field : $ftype),+ },);
    };
    ($slf:expr, $name:ident, $variant:ident, $($rest:tt)*) => {
        if let $name::$variant = $slf {
            return $crate::json::Value::Str(stringify!($variant).to_string());
        }
        $crate::__json_enum_to!($slf, $name, $($rest)*);
    };
    ($slf:expr, $name:ident, $variant:ident ( $inner:ty ), $($rest:tt)*) => {
        if let $name::$variant(x) = $slf {
            return $crate::json::Value::Obj(vec![(
                stringify!($variant).to_string(),
                $crate::json::ToJson::to_json(x),
            )]);
        }
        $crate::__json_enum_to!($slf, $name, $($rest)*);
    };
    ($slf:expr, $name:ident,
     $variant:ident { $($field:ident : $ftype:ty),+ $(,)? }, $($rest:tt)*) => {
        if let $name::$variant { $($field),+ } = $slf {
            return $crate::json::Value::Obj(vec![(
                stringify!($variant).to_string(),
                $crate::json::Value::Obj(vec![
                    $( (stringify!($field).to_string(),
                        $crate::json::ToJson::to_json($field)), )+
                ]),
            )]);
        }
        $crate::__json_enum_to!($slf, $name, $($rest)*);
    };
}

/// Implementation detail of [`impl_json_enum!`]: expands one early-return
/// block per variant of the parser.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_from {
    ($v:expr, $name:ident,) => {};
    // Normalize a missing trailing comma after the final variant.
    ($v:expr, $name:ident, $variant:ident) => {
        $crate::__json_enum_from!($v, $name, $variant,);
    };
    ($v:expr, $name:ident, $variant:ident ( $inner:ty )) => {
        $crate::__json_enum_from!($v, $name, $variant($inner),);
    };
    ($v:expr, $name:ident, $variant:ident { $($field:ident : $ftype:ty),+ $(,)? }) => {
        $crate::__json_enum_from!($v, $name, $variant { $($field : $ftype),+ },);
    };
    ($v:expr, $name:ident, $variant:ident, $($rest:tt)*) => {
        if let $crate::json::Value::Str(s) = $v {
            if s == stringify!($variant) {
                return Ok($name::$variant);
            }
        }
        $crate::__json_enum_from!($v, $name, $($rest)*);
    };
    ($v:expr, $name:ident, $variant:ident ( $inner:ty ), $($rest:tt)*) => {
        if let $crate::json::Value::Obj(pairs) = $v {
            if let [(tag, payload)] = pairs.as_slice() {
                if tag == stringify!($variant) {
                    return Ok($name::$variant(
                        <$inner as $crate::json::FromJson>::from_json(payload)?,
                    ));
                }
            }
        }
        $crate::__json_enum_from!($v, $name, $($rest)*);
    };
    ($v:expr, $name:ident,
     $variant:ident { $($field:ident : $ftype:ty),+ $(,)? }, $($rest:tt)*) => {
        if let $crate::json::Value::Obj(pairs) = $v {
            if let [(tag, payload)] = pairs.as_slice() {
                if tag == stringify!($variant) {
                    return Ok($name::$variant {
                        $( $field: <$ftype as $crate::json::FromJson>::from_json(
                            payload.get(stringify!($field)).ok_or_else(
                                || $crate::json::JsonError::missing_field(
                                    stringify!($field)))?,
                        )?, )+
                    });
                }
            }
        }
        $crate::__json_enum_from!($v, $name, $($rest)*);
    };
}

#[cfg(test)]
mod macro_tests {
    use crate::json::{self, FromJson, ToJson, Value};

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        id: u32,
        tag: String,
    }
    impl_json_struct!(Inner { id, tag });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        inner: Inner,
        hash: u128,
        score: f64,
        items: Vec<Inner>,
        opt: Option<String>,
    }
    impl_json_struct!(Outer { inner, hash, score, items, opt });

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Wrapped(u64);
    impl_json_newtype!(Wrapped);

    #[derive(Debug, Clone, PartialEq)]
    enum Mixed {
        Plain,
        Wrapping(Wrapped),
        Structured { a: u32, b: String },
        AlsoPlain,
    }
    impl_json_enum!(Mixed {
        Plain,
        Wrapping(Wrapped),
        Structured { a: u32, b: String },
        AlsoPlain,
    });

    fn rt<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(x: T) {
        let s = json::to_string(&x);
        assert_eq!(json::from_str::<T>(&s).unwrap(), x, "roundtrip via {s}");
        let p = json::to_string_pretty(&x);
        assert_eq!(json::from_str::<T>(&p).unwrap(), x, "pretty roundtrip via {p}");
    }

    #[test]
    fn struct_macro_roundtrips_nested() {
        rt(Outer {
            inner: Inner { id: 1, tag: "a\"b".into() },
            hash: u128::MAX - 3,
            score: 0.375,
            items: vec![Inner { id: 2, tag: String::new() }],
            opt: None,
        });
    }

    #[test]
    fn struct_macro_field_order_matches_declaration() {
        let s = json::to_string(&Inner { id: 9, tag: "t".into() });
        assert_eq!(s, r#"{"id":9,"tag":"t"}"#);
    }

    #[test]
    fn struct_macro_reports_missing_fields() {
        let err = json::from_str::<Inner>(r#"{"id":9}"#).unwrap_err();
        assert!(err.message.contains("tag"), "{err}");
    }

    #[test]
    fn newtype_macro_is_transparent() {
        rt(Wrapped(17));
        assert_eq!(json::to_string(&Wrapped(17)), "17");
    }

    #[test]
    fn enum_macro_matches_serde_externally_tagged_encoding() {
        assert_eq!(json::to_string(&Mixed::Plain), r#""Plain""#);
        assert_eq!(json::to_string(&Mixed::AlsoPlain), r#""AlsoPlain""#);
        assert_eq!(json::to_string(&Mixed::Wrapping(Wrapped(3))), r#"{"Wrapping":3}"#);
        assert_eq!(
            json::to_string(&Mixed::Structured { a: 1, b: "x".into() }),
            r#"{"Structured":{"a":1,"b":"x"}}"#
        );
        for v in [
            Mixed::Plain,
            Mixed::AlsoPlain,
            Mixed::Wrapping(Wrapped(99)),
            Mixed::Structured { a: 7, b: "y".into() },
        ] {
            rt(v);
        }
    }

    #[test]
    fn enum_macro_rejects_unknown_variants() {
        assert!(json::from_str::<Mixed>(r#""Nope""#).is_err());
        assert!(json::from_str::<Mixed>(r#"{"Nope":1}"#).is_err());
        assert!(json::from_str::<Mixed>("4").is_err());
    }

    #[test]
    fn values_from_macros_compose_with_value_tree() {
        let v = Mixed::Structured { a: 1, b: "x".into() }.to_json();
        assert!(v.get("Structured").is_some());
        assert_eq!(
            v.get("Structured").and_then(|s| s.get("a")).and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn resolve_workers_passes_explicit_counts_through() {
        assert_eq!(crate::resolve_workers(1), 1);
        assert_eq!(crate::resolve_workers(7), 7);
        assert!(crate::resolve_workers(0) >= 1, "0 must resolve to a usable count");
    }
}
