//! The bounded, thread-shared memo behind every compiled schedule the
//! sweep engine, the advisor and serving run (`DESIGN.md` §8, §12).

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One key's value, and the lock its first asker computes it under while
/// later askers wait.
type Cell<V> = Arc<(OnceLock<V>, Mutex<()>)>;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Guards hold no data but the map, whose entries are inserted whole;
    // a cell a panicking caller left empty is computed again.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A map from keys to values computed on the first ask, shared between
/// threads and bounded: an insert into a full memo starts it afresh, so
/// a long run of ever-new keys never grows it past `cap` entries.
///
/// Each key is computed once, outside the map's lock: a thread asking
/// for a key another thread is computing waits for that computation and
/// gets back the kept value, so whatever a value accumulates (a
/// schedule's steady-state memo) is accumulated once.
pub struct Memo<K, V, S = RandomState> {
    cap: usize,
    map: Mutex<HashMap<K, Cell<V>, S>>,
}

impl<K: Hash + Eq, V: Clone, S: BuildHasher + Default> Memo<K, V, S> {
    /// An empty memo keeping at most `cap` (at least 1) entries.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Memo { cap: cap.max(1), map: Mutex::default() }
    }

    /// The value kept for `key`, computed on the first ask. A computation
    /// error is returned and keeps nothing; a caller that waited on it
    /// computes afresh. `compute` must not ask for `key` itself.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error.
    pub fn get_or_try_insert_with<Q, E>(
        &self,
        key: &Q,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut map = lock(&self.map);
        let cell = match map.get(key) {
            Some(cell) => match cell.0.get() {
                Some(kept) => return Ok(kept.clone()),
                None => Arc::clone(cell),
            },
            None => {
                if map.len() >= self.cap {
                    map.clear();
                }
                Arc::clone(map.entry(key.to_owned()).or_default())
            }
        };
        drop(map);
        let _computing = lock(&cell.1);
        if let Some(kept) = cell.0.get() {
            return Ok(kept.clone());
        }
        match compute() {
            Ok(value) => Ok(cell.0.get_or_init(|| value).clone()),
            Err(e) => {
                let mut map = lock(&self.map);
                if map.get(key).is_some_and(|kept| Arc::ptr_eq(kept, &cell)) {
                    map.remove(key);
                }
                Err(e)
            }
        }
    }

    /// Entries kept, counting any still being computed.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// `true` when no entry is kept.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values kept so far, in no particular order.
    #[must_use]
    pub fn values(&self) -> Vec<V> {
        lock(&self.map).values().filter_map(|cell| cell.0.get().cloned()).collect()
    }
}

/// Prints the entry count, not the entries.
impl<K, V, S> std::fmt::Debug for Memo<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", lock(&self.map).len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn a_full_memo_starts_afresh_and_the_first_insert_wins() {
        let memo: Memo<u32, u32> = Memo::new(3);
        for k in 0..3 {
            assert_eq!(memo.get_or_try_insert_with(&k, || Ok::<_, ()>(k)), Ok(k));
        }
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.get_or_try_insert_with(&3, || Ok::<_, ()>(30)), Ok(30));
        assert_eq!(memo.len(), 1, "the fourth key started the memo afresh");
        assert_eq!(memo.get_or_try_insert_with(&3, || Ok::<_, ()>(31)), Ok(30));
        assert_eq!(format!("{memo:?}"), "1");
        // An error keeps nothing: the next ask computes.
        assert_eq!(memo.get_or_try_insert_with(&4, || Err(())), Err(()));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get_or_try_insert_with(&4, || Ok::<_, ()>(40)), Ok(40));
        // Slices look up the vectors they own as.
        let shapes: Memo<Vec<u8>, u8> = Memo::new(4);
        assert_eq!(shapes.get_or_try_insert_with(&[1, 2][..], || Ok::<_, ()>(3)), Ok(3));
        assert_eq!(shapes.values(), vec![3]);
    }

    #[test]
    fn racing_threads_compute_once_and_all_get_the_kept_value() {
        // The threads ask together; whichever computes holds the key
        // long enough for the others to ask meanwhile, and they wait.
        let memo: Memo<u8, Arc<usize>> = Memo::new(8);
        let (barrier, computed) = (Barrier::new(4), AtomicUsize::new(0));
        let got: Vec<Arc<usize>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    let (memo, barrier, computed) = (&memo, &barrier, &computed);
                    scope.spawn(move || {
                        barrier.wait();
                        memo.get_or_try_insert_with(&0, || {
                            std::thread::sleep(Duration::from_millis(20));
                            Ok::<_, ()>(Arc::new(computed.fetch_add(1, Ordering::Relaxed)))
                        })
                        .unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(computed.into_inner(), 1, "one computation for one key");
        assert!(got.iter().all(|g| Arc::ptr_eq(g, &got[0])));
        assert_eq!(memo.len(), 1);
    }
}
