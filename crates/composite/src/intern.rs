//! Name interning and build-time dispatch tables.
//!
//! The hot invocation path must never compare or clone strings: names
//! (component names, interface names, interface-function names) are
//! interned to dense `u32` ids exactly once, when a component or stub is
//! *built*, and every later lookup is an array index or a single
//! open-addressing probe sequence over precomputed hashes.
//!
//! Two building blocks:
//!
//! * [`Interner`] — an append-only `name → NameId` table. The kernel
//!   interns component names with it (the flight recorder's shard name
//!   table resolves through the same ids), and the SuperGlue compiler
//!   interns metadata names at lowering time.
//! * [`DispatchTable`] — an immutable open-addressing hash map from
//!   `&str` to a dense `u32` id, built once from a name list. The
//!   compiled stub spec uses one to dispatch interface-function names to
//!   `FnId`s in O(1) with no per-call allocation, replacing the linear
//!   scan + `==` string walk the interpreter used to pay per invocation.
//!
//! Both are fully deterministic: layout depends only on the insertion
//! sequence, never on addresses or randomized hashing.

use std::fmt;

/// Dense id of an interned name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

impl NameId {
    /// The id as a table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only string interner: `intern` is build-time work (component
/// registration, stub compilation); `resolve` is a plain array index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interner {
    names: Vec<String>,
}

impl Interner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a name, returning its dense id. Interning the same name
    /// twice returns the same id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return NameId(i as u32);
        }
        self.names.push(name.to_owned());
        NameId((self.names.len() - 1) as u32)
    }

    /// Resolve an id back to its name.
    #[must_use]
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// All interned names, in id order.
    #[must_use]
    pub fn strings(&self) -> &[String] {
        &self.names
    }

    /// Number of distinct interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// FNV-1a, the classic allocation-free string hash. Deterministic across
/// processes (unlike `std`'s randomized SipHash), which the bit-identical
/// parallel-evaluation guarantees require.
#[inline]
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Immutable open-addressing map from name to a dense `u32` id, built
/// once at stub-build time. Lookup is one hash plus a short linear probe
/// — no allocation, no tree walk, no full-string scan over all entries.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DispatchTable {
    /// Probe slots holding `entry_index + 1` (0 = empty).
    slots: Box<[u32]>,
    /// `(name, id)` entries in insertion order.
    entries: Vec<(String, u32)>,
    mask: u64,
}

impl DispatchTable {
    /// Build a table mapping each name to its position in the iterator.
    /// Later duplicates are ignored (first id wins), matching the
    /// semantics of a linear first-match scan.
    pub fn build<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let entries: Vec<(String, u32)> = names
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n.to_owned(), i as u32))
            .collect();
        let cap = (entries.len().max(1) * 2).next_power_of_two().max(8);
        let mask = (cap - 1) as u64;
        let mut slots = vec![0u32; cap].into_boxed_slice();
        for (i, (name, _)) in entries.iter().enumerate() {
            let mut pos = fnv1a(name) & mask;
            loop {
                let slot = &mut slots[pos as usize];
                if *slot == 0 {
                    *slot = (i + 1) as u32;
                    break;
                }
                if entries[(*slot - 1) as usize].0 == *name {
                    // Duplicate name: keep the first (lowest) id.
                    break;
                }
                pos = (pos + 1) & mask;
            }
        }
        Self {
            slots,
            entries,
            mask,
        }
    }

    /// The id for `name`, if present. O(1): one hash + short probe.
    #[must_use]
    #[inline]
    pub fn get(&self, name: &str) -> Option<u32> {
        let mut pos = fnv1a(name) & self.mask;
        loop {
            let slot = self.slots[pos as usize];
            if slot == 0 {
                return None;
            }
            let (key, id) = &self.entries[(slot - 1) as usize];
            if key == name {
                return Some(*id);
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Number of distinct entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for DispatchTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(n, i)| (n.as_str(), i)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("sched");
        let b = i.intern("mm");
        assert_eq!(i.intern("sched"), a);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "sched");
        assert_eq!(i.resolve(b), "mm");
        assert_eq!(i.len(), 2);
        assert_eq!(i.strings(), &["sched".to_owned(), "mm".to_owned()]);
    }

    #[test]
    fn dispatch_maps_names_to_positions() {
        let t = DispatchTable::build(["lock_alloc", "lock_take", "lock_release", "lock_free"]);
        assert_eq!(t.get("lock_alloc"), Some(0));
        assert_eq!(t.get("lock_take"), Some(1));
        assert_eq!(t.get("lock_free"), Some(3));
        assert_eq!(t.get("lock_steal"), None);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn dispatch_duplicate_keeps_first_id() {
        let t = DispatchTable::build(["a", "b", "a"]);
        assert_eq!(t.get("a"), Some(0));
        assert_eq!(t.get("b"), Some(1));
    }

    #[test]
    fn dispatch_handles_collision_heavy_sets() {
        // Many keys in a small table force probe chains; every key must
        // still resolve to its own id.
        let names: Vec<String> = (0..200).map(|i| format!("fn_{i}")).collect();
        let t = DispatchTable::build(names.iter().map(String::as_str));
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.get(n), Some(i as u32), "{n}");
        }
        assert_eq!(t.get("fn_200"), None);
    }

    #[test]
    fn empty_dispatch_rejects_everything() {
        let t = DispatchTable::build([]);
        assert!(t.is_empty());
        assert_eq!(t.get("x"), None);
    }
}
