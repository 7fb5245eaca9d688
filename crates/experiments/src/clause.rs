//! The `name[:k=v,…]` clause grammar shared by the `chaos=` and
//! `mobility=` recipes, and the unknown-name error every spec key
//! reports.
//!
//! A clause names a generator and sets some of the parameters it
//! declares as [`ParamSpec`]s. Every given value is checked where the
//! spec string enters the program: an unknown key, a non-finite number
//! or a value outside the declared range is an error naming the
//! clause, so a generator only ever reads values inside its ranges
//! (omitted keys read the declared default).

/// The largest round anchor, window length or count a clause may
/// give. Keeps `round + len` far from overflow and every generator
/// loop bounded.
pub const MAX_STEPS: usize = 1_000_000;

/// One parameter a clause generator declares: its key, the value used
/// when a clause omits it, and the inclusive range a given value must
/// lie in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamSpec {
    /// The key, e.g. `"p"` in `drop:p=0.01`.
    pub key: &'static str,
    /// The value read when the clause omits the key.
    pub default: f64,
    /// Smallest accepted value.
    pub min: f64,
    /// Largest accepted value.
    pub max: f64,
}

impl ParamSpec {
    /// A parameter `key` with a `default`, accepting `min..=max`.
    pub const fn new(key: &'static str, default: f64, min: f64, max: f64) -> ParamSpec {
        ParamSpec {
            key,
            default,
            min,
            max,
        }
    }
}

/// The error for a name that resolves to nothing:
/// `unknown <kind> "<name>" (registered: …)`, listing the `known` names.
pub(crate) fn unknown<'a>(
    kind: &str,
    name: &str,
    known: impl IntoIterator<Item = &'a str>,
) -> String {
    let known: Vec<&str> = known.into_iter().collect();
    format!("unknown {kind} {name:?} (registered: {})", known.join(", "))
}

/// Splits `name[:k=v,…]` into its trimmed name and parameter text.
pub(crate) fn split(clause: &str) -> (&str, Option<&str>) {
    match clause.split_once(':') {
        Some((name, params)) => (name.trim(), Some(params)),
        None => (clause.trim(), None),
    }
}

/// Parses `k=v,…` against the declared `specs`, in clause order.
/// `what` names the clause in every error, e.g. `chaos clause "drop:p=2"`.
pub(crate) fn parse_params(
    what: &str,
    params: Option<&str>,
    specs: &[ParamSpec],
) -> Result<Vec<(String, f64)>, String> {
    let Some(params) = params else {
        return Ok(Vec::new());
    };
    params
        .split(',')
        .map(|kv| {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("{what}: {kv:?} is not k=v"))?;
            let (k, v) = (k.trim(), v.trim());
            let x: f64 = v
                .parse()
                .map_err(|_| format!("{what}: {v:?} is not a number"))?;
            let spec = specs.iter().find(|s| s.key == k).ok_or_else(|| {
                let keys: Vec<&str> = specs.iter().map(|s| s.key).collect();
                format!("{what}: unknown key {k:?} (keys: {})", keys.join(", "))
            })?;
            if !x.is_finite() || !(spec.min..=spec.max).contains(&x) {
                return Err(format!(
                    "{what}: {k}={v} must be finite and in [{:?}, {:?}]",
                    spec.min, spec.max
                ));
            }
            Ok((k.to_owned(), x))
        })
        .collect()
}

/// The value of `key`: as the clause gave it, else its declared default.
///
/// # Panics
///
/// Panics when `key` is not among `specs` — a generator reading a key
/// it never declared is a bug in that generator.
pub(crate) fn param(params: &[(String, f64)], specs: &[ParamSpec], key: &str) -> f64 {
    match params.iter().find(|(k, _)| k == key) {
        Some(&(_, v)) => v,
        None => specs
            .iter()
            .find(|s| s.key == key)
            .map(|s| s.default)
            // sp-analyze: allow(panic, reading an undeclared key is a bug in the generator, not bad input)
            .unwrap_or_else(|| panic!("parameter {key:?} is not declared")),
    }
}

/// Renders `name[:k=v,…]` — the canonical form [`parse_params`] reads
/// back.
pub(crate) fn render(name: &str, params: &[(String, f64)]) -> String {
    let mut s = name.to_owned();
    if !params.is_empty() {
        s.push(':');
        let kvs: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        s.push_str(&kvs.join(","));
    }
    s
}
