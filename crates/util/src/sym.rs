//! World-level symbol interning: append-only arenas mapping repeated
//! values (domains, e2LDs, URLs) to dense `u32` symbols.
//!
//! One world-level arena is shared by the crawler, graph, milker, tracker
//! and daemon. The contracts that make interning safe under this
//! workspace's byte-identity discipline:
//!
//! * **Append-only.** A symbol, once handed out, never changes meaning.
//! * **Deterministic first-seen order.** Symbols are assigned in the order
//!   values are first interned, so two runs that intern the same value
//!   sequence assign identical symbols — the foundation for the farm's
//!   worker-count-invariant canonicalization.
//!
//! An arena is in-memory only and has no JSON form: every artifact that
//! carries a domain writes the resolved string (the tracker snapshot's
//! points, the export's landing records), and a resumed tracker re-interns
//! those strings in snapshot order. Only [`Sym`] itself serializes, as the
//! bare number.
//!
//! [`Interner`] is the generic engine (also used by the backtrack graph
//! for `Url`-like keys); [`SymbolArena`] is the string specialization
//! with a typed [`Sym`] API; [`SharedArena`] wraps one in
//! `Arc<RwLock<..>>` so the pipeline, tracker and daemon snapshot can
//! share a single arena across threads.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// A dense arena symbol: an index into the arena that assigned it.
///
/// `Sym` is deliberately a plain newtype over `u32` — it serializes as
/// the bare number, packs into struct-of-arrays columns, and costs a
/// shift-free array index to resolve.
///
/// ```
/// use seacma_util::sym::{Sym, SymbolArena};
///
/// let mut arena = SymbolArena::new();
/// let evil = arena.intern("evil.club");
/// assert_eq!(evil, Sym(0));
/// assert_eq!(arena.intern("evil.club"), evil); // idempotent
/// assert_eq!(arena.resolve(evil), "evil.club");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol as a plain index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

crate::impl_json_newtype!(Sym);

/// The generic append-only interner: dense `u32` ids in first-seen order.
///
/// Stores each distinct value exactly **once**, in the resolve column.
/// Lookup goes through a hash-indexed chain: `heads` maps a value's hash
/// to the most recently interned id with that hash, and `next[id]` links
/// ids sharing a hash (collision chain, walked with real equality
/// checks). A miss therefore costs a single `to_owned`, not the two full
/// clones a `HashMap<T, u32>` index would — which is exactly what the
/// crawl hot path pays per distinct URL per event log. The hasher is the
/// std `DefaultHasher` with its fixed default keys, so nothing about the
/// structure (let alone the observable first-seen order) depends on
/// process randomness.
///
/// ```
/// use seacma_util::sym::Interner;
///
/// let mut i: Interner<String> = Interner::new();
/// assert_eq!(i.intern("a.com"), 0);
/// assert_eq!(i.intern("b.com"), 1);
/// assert_eq!(i.intern("a.com"), 0);
/// assert_eq!(i.resolve(1), "b.com");
/// assert_eq!(i.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Interner<T> {
    items: Vec<T>,
    /// value hash → id of the last item interned with that hash.
    heads: HashMap<u64, u32>,
    /// `next[id]` → previous id sharing `id`'s hash, or `NO_ID`.
    next: Vec<u32>,
}

/// Chain terminator for [`Interner::next`] (also the id-space ceiling: an
/// interner holds fewer than `u32::MAX` values).
const NO_ID: u32 = u32::MAX;

fn hash_of<Q: Hash + ?Sized>(q: &Q) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    q.hash(&mut h);
    h.finish()
}

// Manual impl: an empty interner needs no `T: Default`.
impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner { items: Vec::new(), heads: HashMap::new(), next: Vec::new() }
    }
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a value, returning its stable dense id. The first call for
    /// a value assigns the next id; later calls return the same id.
    pub fn intern<Q>(&mut self, item: &Q) -> u32
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = T> + ?Sized,
    {
        let h = hash_of(item);
        if let Some(id) = self.find(h, item) {
            return id;
        }
        let id = self.items.len() as u32;
        debug_assert!(id < NO_ID, "interner id space exhausted");
        self.items.push(item.to_owned());
        self.next.push(self.heads.insert(h, id).unwrap_or(NO_ID));
        id
    }

    /// Walks the collision chain for hash `h` looking for `item`. The
    /// `Borrow` contract guarantees `T` and `Q` hash and compare alike,
    /// so probing with the borrowed form finds the owned one.
    fn find<Q>(&self, h: u64, item: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut cur = self.heads.get(&h).copied().unwrap_or(NO_ID);
        while cur != NO_ID {
            if self.items[cur as usize].borrow() == item {
                return Some(cur);
            }
            cur = self.next[cur as usize];
        }
        None
    }

    /// The id a value already holds, without interning it.
    pub fn get<Q>(&self, item: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find(hash_of(item), item)
    }

    /// The value behind an id. Panics on an id this interner never
    /// assigned (symbols don't travel between arenas).
    pub fn resolve(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// Distinct values interned so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All interned values, in first-seen (id) order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Forgets every interned value while keeping the backing capacity.
    ///
    /// This is the scratch-reuse escape hatch for interners whose
    /// lifetime is one unit of work (a browser session's event log): the
    /// append-only contract holds *within* a generation, and `clear`
    /// starts a new one. Ids assigned after a clear restart from 0 and
    /// are a pure function of the post-clear intern sequence, so a
    /// cleared interner is observationally identical to a fresh one.
    pub fn clear(&mut self) {
        self.items.clear();
        self.heads.clear();
        self.next.clear();
    }
}

/// The world-level string arena: [`Interner<String>`] with a typed
/// [`Sym`] API.
///
/// ```
/// use seacma_util::sym::SymbolArena;
///
/// let mut arena = SymbolArena::new();
/// arena.intern("pub0.com");
/// arena.intern("evil.club");
/// arena.intern("pub0.com");
/// assert_eq!(arena.strings(), ["pub0.com", "evil.club"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolArena {
    inner: Interner<String>,
}

impl SymbolArena {
    /// An empty arena.
    pub fn new() -> Self {
        SymbolArena { inner: Interner::new() }
    }

    /// Interns a string, returning its stable symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        Sym(self.inner.intern(s))
    }

    /// The symbol a string already holds, without interning it. Query
    /// paths use this so unknown inputs never grow the arena.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.inner.get(s).map(Sym)
    }

    /// The string behind a symbol. Panics on a symbol from another arena.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.inner.resolve(sym.0)
    }

    /// Distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// All interned strings, in first-seen (symbol) order.
    pub fn strings(&self) -> &[String] {
        self.inner.items()
    }
}

/// A [`SymbolArena`] shared across threads and components.
///
/// Cloning a `SharedArena` clones the *handle*; all clones intern into
/// and resolve against the same arena. Interning takes the write lock
/// only on first sight of a string (double-checked), so steady-state
/// lookups on a warmed arena are read-lock only.
///
/// Determinism note: concurrent interning from racing threads would make
/// symbol assignment scheduling-dependent, so every caller in this
/// workspace interns at a sequential point (the farm's canonicalization
/// pass, the milker's merge, the tracker's single-writer insert) — the
/// lock is for *sharing*, not for parallel assignment.
///
/// ```
/// use seacma_util::sym::SharedArena;
///
/// let arena = SharedArena::new();
/// let a = arena.clone();
/// let s = a.intern("evil.club");
/// assert_eq!(arena.lookup("evil.club"), Some(s));
/// assert_eq!(arena.read().resolve(s), "evil.club");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedArena(Arc<RwLock<SymbolArena>>);

impl SharedArena {
    /// A handle onto a fresh empty arena.
    pub fn new() -> Self {
        SharedArena(Arc::new(RwLock::new(SymbolArena::new())))
    }

    /// Interns a string, returning its stable symbol. Fast path is a read
    /// lock; the write lock is taken only when the string is new.
    pub fn intern(&self, s: &str) -> Sym {
        if let Some(sym) = self.0.read().unwrap().lookup(s) {
            return sym;
        }
        self.0.write().unwrap().intern(s)
    }

    /// The symbol a string already holds, never growing the arena.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.0.read().unwrap().lookup(s)
    }

    /// The string behind a symbol, as an owned copy.
    pub fn resolve_owned(&self, sym: Sym) -> String {
        self.0.read().unwrap().resolve(sym).to_string()
    }

    /// A read guard for batch resolution without per-call locking.
    pub fn read(&self) -> RwLockReadGuard<'_, SymbolArena> {
        self.0.read().unwrap()
    }

    /// Distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.0.read().unwrap().len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.0.read().unwrap().is_empty()
    }

    /// Whether two handles share one underlying arena. Symbols only
    /// travel between components whose handles are `ptr_eq`.
    pub fn ptr_eq(&self, other: &SharedArena) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forall;

    #[test]
    fn symbols_are_first_seen_dense_and_idempotent() {
        let mut arena = SymbolArena::new();
        let a = arena.intern("a.com");
        let b = arena.intern("b.com");
        let a2 = arena.intern("a.com");
        assert_eq!((a, b, a2), (Sym(0), Sym(1), Sym(0)));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.resolve(b), "b.com");
        assert_eq!(arena.lookup("c.com"), None);
    }

    #[test]
    fn shared_handle_clones_see_one_arena() {
        let arena = SharedArena::new();
        let clone = arena.clone();
        let s1 = clone.intern("x.com");
        let s2 = arena.intern("x.com");
        assert_eq!(s1, s2);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.resolve_owned(s1), "x.com");
        // lookup never grows the arena
        assert_eq!(arena.lookup("unknown.example"), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn generic_interner_works_with_non_string_keys() {
        let mut i: Interner<Vec<u8>> = Interner::new();
        let a = i.intern(&b"ab"[..]);
        let b = i.intern(&b"cd"[..]);
        assert_eq!(i.intern(&b"ab"[..]), a);
        assert_eq!(i.resolve(b), b"cd");
        assert_eq!(i.items().len(), 2);
    }

    #[test]
    fn same_intern_sequence_assigns_same_symbols() {
        forall!(|g| {
            let n = g.range(1, 60);
            let seq: Vec<String> =
                (0..n).map(|_| format!("s{}.com", g.range(0, 10))).collect();
            let mut a = SymbolArena::new();
            let mut b = SymbolArena::new();
            let syms_a: Vec<Sym> = seq.iter().map(|s| a.intern(s)).collect();
            let syms_b: Vec<Sym> = seq.iter().map(|s| b.intern(s)).collect();
            assert_eq!(syms_a, syms_b);
            assert_eq!(a.strings(), b.strings());
        });
    }
}
