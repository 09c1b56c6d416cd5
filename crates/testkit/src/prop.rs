//! A minimal property-testing harness (proptest replacement).
//!
//! A property is a function from a generated input to `Result<(), String>`;
//! the harness runs it for a configurable number of cases, each drawn from
//! a deterministic per-case seed. On failure it performs iteration-bounded
//! shrinking (structural generators know how to propose smaller inputs)
//! and persists the failing case seed to a regression file under
//! `tests/tk-regressions/` in the crate under test, which is replayed
//! first on every subsequent run.
//!
//! Write tests with the [`props!`](crate::props) macro:
//!
//! ```ignore
//! testkit::props! {
//!     #[cases(256)]
//!     fn addition_commutes((a, b) in tuple2(range(0u32..100), range(0u32..100))) {
//!         tk_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Generators ([`Gen`]) are built from combinators: [`range`],
//! [`uniform`], [`vec_of`], [`option_of`], [`tuple2`]..[`tuple4`],
//! [`one_of`], [`weighted`], [`just`], [`from_fn`], and [`Gen::map`].
//! Structural combinators shrink; `map`/`one_of`/`from_fn` values do not
//! (their failures still replay exactly via the persisted seed).

use crate::rng::{mix_label, TkRng, UniformRange};
use std::fmt::Debug;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

type GenerateFn<T> = Rc<dyn Fn(&mut TkRng) -> T>;
type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A generator: produces values from an RNG and proposes shrunk variants of
/// a failing value.
pub struct Gen<T> {
    generate: GenerateFn<T>,
    shrink: ShrinkFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            generate: Rc::clone(&self.generate),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// Build a generator from explicit generate and shrink functions.
    pub fn new(
        generate: impl Fn(&mut TkRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Gen {
            generate: Rc::new(generate),
            shrink: Rc::new(shrink),
        }
    }

    /// Draw one value.
    pub fn generate(&self, rng: &mut TkRng) -> T {
        (self.generate)(rng)
    }

    /// Propose shrunk variants of a failing value (possibly empty).
    pub fn shrinks(&self, v: &T) -> Vec<T> {
        (self.shrink)(v)
    }

    /// Transform generated values. The mapped generator does not shrink
    /// (the mapping is not invertible); failures still replay by seed.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let g = self.generate;
        Gen::new(move |rng| f(g(rng)), |_| Vec::new())
    }
}

/// Always produce a clone of `v`; no shrinking.
pub fn just<T: Clone + 'static>(v: T) -> Gen<T> {
    Gen::new(move |_| v.clone(), |_| Vec::new())
}

/// Build values with an arbitrary closure; no shrinking.
pub fn from_fn<T: 'static>(f: impl Fn(&mut TkRng) -> T + 'static) -> Gen<T> {
    Gen::new(f, |_| Vec::new())
}

/// Integers with shrink candidates stepping toward a target value.
fn int_shrinks<T>(v: T, target: T) -> Vec<T>
where
    T: Copy + PartialEq + PartialOrd + IntMid,
{
    let mut out = Vec::new();
    if v == target {
        return out;
    }
    out.push(target);
    let mid = T::mid(target, v);
    if mid != target && mid != v {
        out.push(mid);
    }
    let step = T::step_toward(v, target);
    if step != v && step != target && Some(&step) != out.last() {
        out.push(step);
    }
    out
}

/// Helper trait for integer shrinking arithmetic.
pub trait IntMid: Sized {
    /// Midpoint between `a` and `b` (rounded toward `a`).
    fn mid(a: Self, b: Self) -> Self;
    /// One step from `v` toward `target`.
    fn step_toward(v: Self, target: Self) -> Self;
}

macro_rules! impl_int_mid {
    ($($t:ty),*) => {$(
        impl IntMid for $t {
            fn mid(a: Self, b: Self) -> Self {
                // Overflow-safe midpoint.
                a + (b - a) / 2
            }
            fn step_toward(v: Self, target: Self) -> Self {
                if v > target { v - 1 } else if v < target { v + 1 } else { v }
            }
        }
    )*};
}
impl_int_mid!(u8, u16, u32, u64, usize);

macro_rules! impl_int_mid_signed {
    ($($t:ty),*) => {$(
        impl IntMid for $t {
            fn mid(a: Self, b: Self) -> Self {
                a + (b - a) / 2
            }
            fn step_toward(v: Self, target: Self) -> Self {
                if v > target { v - 1 } else if v < target { v + 1 } else { v }
            }
        }
    )*};
}
impl_int_mid_signed!(i8, i16, i32, i64);

/// Uniform sample from a half-open or inclusive integer range; shrinks
/// toward the low end of the range.
pub fn range<T, R>(r: R) -> Gen<T>
where
    T: Copy + PartialEq + PartialOrd + IntMid + Debug + 'static,
    R: UniformRange<T> + RangeLow<T> + Clone + 'static,
{
    let lo = r.low();
    Gen::new(
        move |rng| rng.gen_range(r.clone()),
        move |&v| int_shrinks(v, lo),
    )
}

/// Access to the low bound of a range (the shrink target).
pub trait RangeLow<T> {
    /// The inclusive low bound.
    fn low(&self) -> T;
}
impl<T: Copy> RangeLow<T> for std::ops::Range<T> {
    fn low(&self) -> T {
        self.start
    }
}
impl<T: Copy> RangeLow<T> for std::ops::RangeInclusive<T> {
    fn low(&self) -> T {
        *self.start()
    }
}

/// The full range of an integer type (like proptest's `any::<T>()`);
/// shrinks toward zero.
pub fn uniform<T>() -> Gen<T>
where
    T: Copy + PartialEq + PartialOrd + IntMid + FromU64 + Debug + 'static,
{
    Gen::new(
        |rng| T::from_u64(rng.next_u64()),
        |&v| int_shrinks(v, T::from_u64(0)),
    )
}

/// Truncating conversion from a raw 64-bit draw.
pub trait FromU64 {
    /// Truncate `v` into `Self`.
    fn from_u64(v: u64) -> Self;
}
macro_rules! impl_from_u64 {
    ($($t:ty),*) => {$(impl FromU64 for $t { fn from_u64(v: u64) -> Self { v as $t } })*};
}
impl_from_u64!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// `bool` with equal probability; `true` shrinks to `false`.
pub fn any_bool() -> Gen<bool> {
    Gen::new(
        |rng| rng.next_u64() & 1 == 1,
        |&v| if v { vec![false] } else { Vec::new() },
    )
}

/// Vector of values from `elem`, length drawn from `len`; shrinks by
/// halving the length, dropping single elements, and shrinking elements.
pub fn vec_of<T>(elem: Gen<T>, len: std::ops::Range<usize>) -> Gen<Vec<T>>
where
    T: Clone + 'static,
{
    let min_len = len.start;
    let elem2 = elem.clone();
    Gen::new(
        move |rng| {
            let n = rng.gen_range(len.clone());
            (0..n).map(|_| elem.generate(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            // Halve toward the minimum length.
            if v.len() > min_len {
                let half = min_len + (v.len() - min_len) / 2;
                out.push(v[..half].to_vec());
                // Drop one element at a few evenly spaced positions.
                let slots = v.len().min(4);
                for i in 0..slots {
                    let mut w = v.clone();
                    w.remove(i * v.len() / slots);
                    out.push(w);
                }
            }
            // Shrink the first few elements in place.
            for i in 0..v.len().min(4) {
                for cand in elem2.shrinks(&v[i]).into_iter().take(2) {
                    let mut w = v.clone();
                    w[i] = cand;
                    out.push(w);
                }
            }
            out
        },
    )
}

/// `Option` that is `Some` about 3/4 of the time; shrinks `Some` to `None`
/// and through the inner generator.
pub fn option_of<T>(inner: Gen<T>) -> Gen<Option<T>>
where
    T: Clone + 'static,
{
    let inner2 = inner.clone();
    Gen::new(
        move |rng| {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(inner.generate(rng))
            }
        },
        move |v: &Option<T>| match v {
            None => Vec::new(),
            Some(x) => {
                let mut out = vec![None];
                out.extend(inner2.shrinks(x).into_iter().map(Some));
                out
            }
        },
    )
}

/// Uniformly pick one of several generators of the same type; chosen
/// values do not shrink (the source generator is unknown after the fact).
pub fn one_of<T: 'static>(gens: Vec<Gen<T>>) -> Gen<T> {
    assert!(!gens.is_empty());
    Gen::new(
        move |rng| {
            let i = rng.next_below(gens.len() as u64) as usize;
            gens[i].generate(rng)
        },
        |_| Vec::new(),
    )
}

/// Weighted version of [`one_of`].
pub fn weighted<T: 'static>(gens: Vec<(u32, Gen<T>)>) -> Gen<T> {
    assert!(!gens.is_empty());
    let total: u64 = gens.iter().map(|&(w, _)| u64::from(w)).sum();
    assert!(total > 0);
    Gen::new(
        move |rng| {
            let mut pick = rng.next_below(total);
            for (w, g) in &gens {
                let w = u64::from(*w);
                if pick < w {
                    return g.generate(rng);
                }
                pick -= w;
            }
            unreachable!()
        },
        |_| Vec::new(),
    )
}

macro_rules! impl_tuple_gen {
    ($(#[$attr:meta])* $fname:ident: $($g:ident $v:ident $i:tt),+) => {
        /// Tuple of independent generators; shrinks one component at a time.
        $(#[$attr])*
        pub fn $fname<$($g: Clone + 'static),+>($($v: Gen<$g>),+) -> Gen<($($g,)+)> {
            $(let $v = $v.clone();)+
            let gens = ($($v.clone(),)+);
            let shr = ($($v,)+);
            Gen::new(
                move |rng| ($(gens.$i.generate(rng),)+),
                move |t| {
                    let mut out = Vec::new();
                    $(
                        for cand in shr.$i.shrinks(&t.$i).into_iter().take(3) {
                            let mut w = t.clone();
                            w.$i = cand;
                            out.push(w);
                        }
                    )+
                    out
                },
            )
        }
    };
}
impl_tuple_gen!(tuple2: A a 0, B b 1);
impl_tuple_gen!(tuple3: A a 0, B b 1, C c 2);
impl_tuple_gen!(tuple4: A a 0, B b 1, C c 2, D d 3);
impl_tuple_gen!(
    #[expect(clippy::too_many_arguments, reason = "one argument per tuple component")]
    tuple8: A a 0, B b 1, C c 2, D d 3, E e 4, F f 5, G g 6, H h 7
);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run (overridable via `TK_CASES`).
    pub cases: u32,
    /// Base seed for the case stream (overridable via `TK_SEED`).
    pub seed: u64,
    /// Maximum shrink candidates evaluated after a failure.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: 0x7d7c_0ffe_e000_0001,
            max_shrink_iters: 2_000,
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| {
        v.strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or_else(|| v.parse().ok())
    })
}

fn regression_path(manifest_dir: &str, name: &str) -> PathBuf {
    let safe: String = name
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    PathBuf::from(manifest_dir)
        .join("tests")
        .join("tk-regressions")
        .join(format!("{safe}.seeds"))
}

fn load_regression_seeds(path: &PathBuf) -> Vec<u64> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                return None;
            }
            l.strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
        })
        .collect()
}

fn persist_regression_seed(path: &PathBuf, seed: u64) {
    let existing = load_regression_seeds(path);
    if existing.contains(&seed) {
        return;
    }
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let header_needed = !path.exists();
    if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) {
        if header_needed {
            let _ = writeln!(
                f,
                "# testkit regression seeds: replayed before random cases.\n\
                 # Each line is a failing case seed; keep this file in git."
            );
        }
        let _ = writeln!(f, "0x{seed:016x}");
    }
}

/// Run a property over `cfg.cases` generated inputs, shrinking and
/// persisting a regression seed on failure. Panics (like `assert!`) with a
/// replayable report when the property fails.
pub fn check<T: Debug + Clone + 'static>(
    name: &str,
    manifest_dir: &str,
    cfg: Config,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    let cases = env_u64("TK_CASES").map(|v| v as u32).unwrap_or(cfg.cases);
    let base_seed = env_u64("TK_SEED").unwrap_or(cfg.seed);
    let reg_path = regression_path(manifest_dir, name);

    // Replay persisted regressions first.
    for seed in load_regression_seeds(&reg_path) {
        run_case(name, &reg_path, &cfg, gen, &prop, seed, true);
    }

    for i in 0..cases {
        let case_seed = mix_label(base_seed, u64::from(i).wrapping_add(0x51ed_c0de));
        run_case(name, &reg_path, &cfg, gen, &prop, case_seed, false);
    }
}

/// Worker-thread count for [`check_sharded`]: `TK_JOBS` env override,
/// else `available_parallelism()`.
pub fn default_jobs() -> usize {
    env_u64("TK_JOBS")
        .map(|v| (v as usize).max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Parallel [`check`]: shard the case indices across worker threads.
///
/// [`Gen`] holds `Rc` internals and cannot cross threads, so each worker
/// builds its own generator from `make_gen`. Case seeds are identical to
/// [`check`]'s (derived from the case index, not from which worker runs
/// it), so a property passes or fails identically under any job count.
/// Failure handling is deterministic too: workers race only to *find*
/// failing indices; the lowest one is then re-run serially through the
/// shrink-persist-panic path, which reports exactly what serial [`check`]
/// would have reported for that case.
///
/// Replayed regression seeds still run serially first — they are few,
/// and their panics must keep deterministic priority over fresh cases.
pub fn check_sharded<T: Debug + Clone + 'static>(
    name: &str,
    manifest_dir: &str,
    cfg: Config,
    jobs: usize,
    make_gen: impl Fn() -> Gen<T> + Sync,
    prop: impl Fn(&T) -> Result<(), String> + Sync,
) {
    let cases = env_u64("TK_CASES").map(|v| v as u32).unwrap_or(cfg.cases);
    let base_seed = env_u64("TK_SEED").unwrap_or(cfg.seed);
    let reg_path = regression_path(manifest_dir, name);

    let gen = make_gen();
    for seed in load_regression_seeds(&reg_path) {
        run_case(name, &reg_path, &cfg, &gen, &prop, seed, true);
    }

    let case_seed = |i: u32| mix_label(base_seed, u64::from(i).wrapping_add(0x51ed_c0de));
    let workers = jobs.max(1).min(cases.max(1) as usize);
    let min_fail = if workers <= 1 {
        let mut first = u64::MAX;
        for i in 0..cases {
            let mut rng = TkRng::new(case_seed(i));
            let value = gen.generate(&mut rng);
            if prop(&value).is_err() {
                first = u64::from(i);
                break;
            }
        }
        first
    } else {
        use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
        let cursor = AtomicU32::new(0);
        let min_fail = AtomicU64::new(u64::MAX);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let gen = make_gen();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        // The cursor is monotone: once an index at or past
                        // the best failure is claimed, every later claim is
                        // too, so this worker is finished.
                        if i >= cases || u64::from(i) >= min_fail.load(Ordering::Relaxed) {
                            break;
                        }
                        let mut rng = TkRng::new(case_seed(i));
                        let value = gen.generate(&mut rng);
                        if prop(&value).is_err() {
                            min_fail.fetch_min(u64::from(i), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        min_fail.into_inner()
    };

    if min_fail != u64::MAX {
        // Deterministic failure path: shrink, persist, and panic exactly
        // like serial `check` at the first failing case index.
        run_case(
            name,
            &reg_path,
            &cfg,
            &gen,
            &prop,
            case_seed(min_fail as u32),
            false,
        );
        unreachable!("case {min_fail} failed in the sweep but passed on replay");
    }
}

fn run_case<T: Debug + Clone + 'static>(
    name: &str,
    reg_path: &PathBuf,
    cfg: &Config,
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> Result<(), String>,
    case_seed: u64,
    replay: bool,
) {
    let mut rng = TkRng::new(case_seed);
    let value = gen.generate(&mut rng);
    let Err(err) = prop(&value) else { return };

    // Iteration-bounded greedy shrink: repeatedly move to the first
    // failing shrink candidate until none fails or the budget runs out.
    let mut best = value;
    let mut best_err = err;
    let mut budget = cfg.max_shrink_iters;
    'outer: while budget > 0 {
        for cand in gen.shrinks(&best) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(e) = prop(&cand) {
                best = cand;
                best_err = e;
                continue 'outer;
            }
        }
        break;
    }

    if !replay {
        persist_regression_seed(reg_path, case_seed);
    }
    panic!(
        "property `{name}` failed{}\n  case seed: 0x{case_seed:016x} (persisted to {})\n  \
         minimal input: {best:?}\n  error: {best_err}\n  \
         replay: the seed file is replayed automatically on the next run",
        if replay { " (replaying persisted regression seed)" } else { "" },
        reg_path.display(),
    );
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Define property tests. Each entry expands to a `#[test]` that draws the
/// bound pattern from the generator expression and runs the body; use
/// [`tk_assert!`](crate::tk_assert) / [`tk_assert_eq!`](crate::tk_assert_eq)
/// inside the body.
#[macro_export]
macro_rules! props {
    ($( $(#[cases($cases:expr)])? $(#[doc = $doc:expr])* fn $name:ident($pat:pat in $gen:expr) $body:block )+) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                let mut __cfg = $crate::prop::Config::default();
                $( __cfg.cases = $cases; )?
                let __gen = $gen;
                $crate::prop::check(
                    concat!(module_path!(), "::", stringify!($name)),
                    env!("CARGO_MANIFEST_DIR"),
                    __cfg,
                    &__gen,
                    |__input| {
                        let $pat = ::std::clone::Clone::clone(__input);
                        $body
                        Ok(())
                    },
                );
            }
        )+
    };
}

/// Property-body assertion: returns an `Err` (triggering shrinking) rather
/// than panicking.
#[macro_export]
macro_rules! tk_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Property-body equality assertion.
#[macro_export]
macro_rules! tk_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {left:?}\n  right: {right:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!(
                "assertion failed: {} == {} — {}\n  left: {left:?}\n  right: {right:?}",
                stringify!($a),
                stringify!($b),
                format!($($fmt)+)
            ));
        }
    }};
}

/// Property-body inequality assertion.
#[macro_export]
macro_rules! tk_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err(format!(
                "assertion failed: {} != {}\n  both: {left:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_deterministic_per_seed() {
        let g = vec_of(range(0u32..100), 0..10);
        let a = g.generate(&mut TkRng::new(5));
        let b = g.generate(&mut TkRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn range_gen_respects_bounds() {
        let g = range(10u32..20);
        let mut rng = TkRng::new(1);
        for _ in 0..1000 {
            let v = g.generate(&mut rng);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn int_shrinks_move_toward_low() {
        let g = range(3u32..1000);
        for cand in g.shrinks(&500) {
            assert!((3..500).contains(&cand), "bad shrink candidate {cand}");
        }
        assert!(g.shrinks(&3).is_empty(), "low bound does not shrink");
    }

    #[test]
    fn vec_shrinks_are_smaller_or_equal_len() {
        let g = vec_of(range(0u32..100), 1..20);
        let v: Vec<u32> = vec![9; 10];
        for cand in g.shrinks(&v) {
            assert!(cand.len() <= v.len());
            assert!(!cand.is_empty(), "respects min length");
        }
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Property: v < 50. Minimal counterexample is 50; greedy shrink
        // from any failing value should land there.
        let g = range(0u64..1000);
        let mut rng = TkRng::new(99);
        let mut failing = None;
        for _ in 0..200 {
            let v = g.generate(&mut rng);
            if v >= 50 {
                failing = Some(v);
                break;
            }
        }
        let mut best = failing.expect("found a failing value");
        let mut budget = 2000;
        'outer: while budget > 0 {
            for cand in g.shrinks(&best) {
                budget -= 1;
                if cand >= 50 {
                    best = cand;
                    continue 'outer;
                }
                if budget == 0 {
                    break 'outer;
                }
            }
            break;
        }
        assert_eq!(best, 50, "greedy shrink reaches the boundary");
    }

    #[test]
    fn check_passes_trivial_property() {
        let dir = std::env::temp_dir();
        check(
            "testkit::internal::trivial",
            dir.to_str().unwrap(),
            Config {
                cases: 50,
                ..Config::default()
            },
            &range(0u32..10),
            |&v| {
                if v < 10 {
                    Ok(())
                } else {
                    Err("impossible".into())
                }
            },
        );
    }

    #[test]
    fn regression_seed_round_trip() {
        let dir = std::env::temp_dir().join("tk-selftest");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = regression_path(dir.to_str().unwrap(), "x::y");
        persist_regression_seed(&path, 0xdead_beef);
        persist_regression_seed(&path, 0xdead_beef); // dedup
        persist_regression_seed(&path, 5);
        assert_eq!(load_regression_seeds(&path), vec![0xdead_beef, 5]);
    }
}
