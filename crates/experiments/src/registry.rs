//! The one registry behind every open experiment axis.
//!
//! Schemes, deployment scenarios and chaos classes are each an
//! append-only `(name, builder)` table of one [`Kind`], addressed by a
//! `Copy` [`Handle`]. Each kind keeps its typed `register`/`try_register`
//! (builder signatures differ) on top of the shared lookups here.
//!
//! Every table guarantees:
//! * unique names, and a collision's error names the kind;
//! * atomic batches: a collision with the table or within the batch
//!   leaves the table unchanged;
//! * at most `u16::MAX` entries, so handles stay two bytes;
//! * poison recovery, sound because entries are only appended, and
//!   only after the whole batch passed its checks;
//! * builders run with the lock released, so a builder may register.

use std::marker::PhantomData;
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One kind of registered entry. Kinds are uninhabited marker enums;
/// the comparison supertraits let [`Handle`] derive its own.
pub trait Kind: Copy + Ord + std::hash::Hash + 'static {
    /// The kind as messages name it, e.g. `"scheme"`.
    const NAME: &'static str;
    /// What an entry stores: a shared builder, cloned out per use.
    type Build: Clone + Send + Sync;
    /// The built-in entries, in handle order. The only place a
    /// built-in is declared; the handle constants index this list.
    fn builtin() -> Vec<(String, Self::Build)>;
    /// The process-wide table of this kind.
    fn registry() -> &'static Registry<Self>;
}

type Table<K> = Vec<(String, <K as Kind>::Build)>;

/// An append-only `(name, builder)` table, filled from
/// [`Kind::builtin`] on first use.
pub struct Registry<K: Kind> {
    table: OnceLock<RwLock<Table<K>>>,
}

impl<K: Kind> Registry<K> {
    /// An empty, not yet initialised table (usable in a `static`).
    pub const fn new() -> Registry<K> {
        Registry {
            table: OnceLock::new(),
        }
    }

    fn lock(&self) -> &RwLock<Table<K>> {
        self.table.get_or_init(|| RwLock::new(K::builtin()))
    }

    fn read(&self) -> RwLockReadGuard<'_, Table<K>> {
        self.lock().read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Table<K>> {
        self.lock().write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handle to one registered entry of kind `K`: `Copy`, order-stable
/// and cheap to compare.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle<K>(u16, PhantomData<K>);

impl<K> Handle<K> {
    /// The handle of the `index`-th registered entry (the built-in
    /// constants are declared with this).
    pub(crate) const fn at(index: u16) -> Handle<K> {
        Handle(index, PhantomData)
    }
}

impl<K: Kind> Handle<K> {
    /// Registers a batch atomically: every entry (in order), or none
    /// when any name collides with the table or within the batch.
    pub(crate) fn add_all(batch: Vec<(String, K::Build)>) -> Result<Vec<Handle<K>>, String> {
        let mut table = K::registry().write();
        for (i, (name, _)) in batch.iter().enumerate() {
            if table.iter().any(|(n, _)| n == name) {
                return Err(format!("{} {name:?} registered twice", K::NAME));
            }
            if batch[..i].iter().any(|(n, _)| n == name) {
                return Err(format!(
                    "{} batch names {name:?} twice (duplicate)",
                    K::NAME
                ));
            }
        }
        if table.len() + batch.len() > u16::MAX as usize {
            return Err(format!("{} registry full", K::NAME));
        }
        let first = table.len();
        table.extend(batch);
        Ok((first..table.len()).map(|i| Handle::at(i as u16)).collect())
    }

    /// Registers one `(name, builder)` entry, reporting a name
    /// collision as `Err`.
    pub(crate) fn add(entry: (String, K::Build)) -> Result<Handle<K>, String> {
        Handle::add_all(vec![entry]).map(|added| added[0])
    }

    /// Looks an entry up by its registered name.
    pub fn by_name(name: &str) -> Option<Handle<K>> {
        K::registry()
            .read()
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| Handle::at(i as u16))
    }

    /// Every currently registered entry, in registration order.
    pub fn all() -> Vec<Handle<K>> {
        (0..K::registry().read().len() as u16)
            .map(Handle::at)
            .collect()
    }

    /// Names of every registered entry, in registration order
    /// (parallel to [`Handle::all`]).
    pub fn names() -> Vec<String> {
        K::registry()
            .read()
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Registered name. Cloned out of the table — names are short and
    /// this never runs in a per-packet loop; hot paths that label many
    /// records resolve a whole set at once with [`Handle::display_names`].
    pub fn name(&self) -> String {
        K::registry().read()[self.0 as usize].0.clone()
    }

    /// Resolves the names of a whole handle set under **one** read
    /// lock, as shared `Arc<str>`s. The sweep runner resolves names
    /// once per sweep and stamps them onto its aggregates, so figure
    /// assembly and record labeling never pay a per-call lock +
    /// `String` clone again.
    pub fn display_names(handles: &[Handle<K>]) -> Vec<std::sync::Arc<str>> {
        let table = K::registry().read();
        handles
            .iter()
            .map(|h| std::sync::Arc::from(table[h.0 as usize].0.as_str()))
            .collect()
    }

    /// The entry's builder, cloned out so it runs with the lock
    /// released.
    pub(crate) fn builder(&self) -> K::Build {
        K::registry().read()[self.0 as usize].1.clone()
    }

    /// The error for a name that resolves to nothing:
    /// `unknown <kind> "<name>" (registered: …)`.
    pub(crate) fn unknown(name: &str) -> String {
        format!(
            "unknown {} {name:?} (registered: {})",
            K::NAME,
            Handle::<K>::names().join(", ")
        )
    }
}

impl<K: Kind> std::fmt::Display for Handle<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&K::registry().read()[self.0 as usize].0)
    }
}

impl<K: Kind> std::fmt::Debug for Handle<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", K::NAME, self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A test-only kind: builders return a number and may register.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Probe {}

    type ProbeBuild = Arc<dyn Fn() -> u32 + Send + Sync>;

    static PROBES: Registry<Probe> = Registry::new();

    impl Kind for Probe {
        const NAME: &'static str = "probe";
        type Build = ProbeBuild;
        fn builtin() -> Vec<(String, ProbeBuild)> {
            vec![("zero".to_owned(), Arc::new(|| 0))]
        }
        fn registry() -> &'static Registry<Probe> {
            &PROBES
        }
    }

    fn entry(name: &str, value: u32) -> (String, ProbeBuild) {
        (name.to_owned(), Arc::new(move || value))
    }

    /// The probe table is process-wide and these tests read it whole,
    /// so they take turns instead of racing each other's registrations.
    fn take_turn() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn collisions_name_the_kind() {
        let _turn = take_turn();
        let err = Handle::<Probe>::add(entry("zero", 1)).expect_err("zero is a built-in");
        assert_eq!(err, "probe \"zero\" registered twice");
        assert_eq!(
            Handle::<Probe>::unknown("nope"),
            format!(
                "unknown probe \"nope\" (registered: {})",
                Handle::<Probe>::names().join(", ")
            )
        );
        let one = Handle::<Probe>::add(entry("collide-one", 1)).unwrap();
        assert_eq!(Handle::by_name("collide-one"), Some(one));
        assert_eq!(one.builder()(), 1);
        assert_eq!(format!("{one:?}"), format!("probe({})", one.0));
    }

    #[test]
    fn rejected_batches_leave_the_table_unchanged() {
        let _turn = take_turn();
        let before = Handle::<Probe>::names();
        let err = Handle::<Probe>::add_all(vec![entry("batch-a", 1), entry("zero", 2)])
            .expect_err("zero collides with the table");
        assert!(err.contains("registered twice"), "{err}");
        let err = Handle::<Probe>::add_all(vec![
            entry("batch-b", 1),
            entry("batch-c", 2),
            entry("batch-b", 3),
        ])
        .expect_err("batch-b appears twice");
        assert!(err.contains("probe") && err.contains("duplicate"), "{err}");
        assert_eq!(Handle::<Probe>::names(), before);
        for name in ["batch-a", "batch-b", "batch-c"] {
            assert_eq!(Handle::<Probe>::by_name(name), None, "{name}");
        }
        let added = Handle::<Probe>::add_all(vec![entry("batch-d", 4), entry("batch-e", 5)])
            .expect("fresh names register");
        let values: Vec<u32> = added.iter().map(|h| h.builder()()).collect();
        assert_eq!(values, [4, 5]);
        assert_eq!(added[1].0, added[0].0 + 1, "a batch lands contiguously");
    }

    #[test]
    fn a_builder_may_register_while_it_runs() {
        let _turn = take_turn();
        let nested: ProbeBuild = Arc::new(|| {
            let inner = Handle::<Probe>::add(entry("registered-inside", 7))
                .expect("the table is unlocked while a builder runs");
            inner.builder()()
        });
        let outer = Handle::<Probe>::add(("registers-inside".to_owned(), nested)).unwrap();
        assert_eq!(outer.builder()(), 7);
        assert!(Handle::<Probe>::by_name("registered-inside").is_some());
    }
}
