//! The view database: one record pool per materialized view, with the
//! secondary indexes chosen by the plan's access-pattern analysis, plus the
//! [`Catalog`] implementation that lets the algebra evaluator run trigger
//! statements directly against the pools and the current update batch.

use hotdog_algebra::eval::Catalog;
use hotdog_algebra::expr::RelKind;
use hotdog_algebra::hash::DetState;
use hotdog_algebra::relation::Relation;
use hotdog_algebra::ring::Mult;
use hotdog_algebra::schema::Schema;
use hotdog_algebra::tuple::Tuple;
use hotdog_algebra::value::Value;
use hotdog_ivm::MaintenancePlan;
use hotdog_storage::{PoolCounters, RecordPool};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Storage for all materialized views of one maintenance plan.
#[derive(Clone, Debug, Default)]
pub struct Database {
    pools: HashMap<String, RecordPool>,
    schemas: HashMap<String, Schema>,
}

impl Database {
    /// Create the pools (and their secondary indexes) required by a plan.
    pub fn for_plan(plan: &MaintenancePlan) -> Self {
        let mut db = Database::default();
        for v in &plan.views {
            db.pools
                .insert(v.name.clone(), RecordPool::new(v.schema.len()));
            db.schemas.insert(v.name.clone(), v.schema.clone());
        }
        for spec in plan.index_requirements() {
            if let Some(pool) = db.pools.get_mut(&spec.view) {
                pool.add_secondary_index(spec.positions.clone());
            }
        }
        db
    }

    /// Access a view's pool.
    pub fn pool(&self, view: &str) -> Option<&RecordPool> {
        self.pools.get(view)
    }

    /// Mutable access to a view's pool.
    pub fn pool_mut(&mut self, view: &str) -> Option<&mut RecordPool> {
        self.pools.get_mut(view)
    }

    /// Schema of a view.
    pub fn schema(&self, view: &str) -> Option<&Schema> {
        self.schemas.get(view)
    }

    /// Names of all views.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.pools.keys().map(|s| s.as_str())
    }

    /// Snapshot a view's contents as a [`Relation`].
    pub fn snapshot(&self, view: &str) -> Relation {
        let schema = self.schemas.get(view).cloned().unwrap_or_default();
        let mut rel = Relation::new(schema);
        if let Some(pool) = self.pools.get(view) {
            pool.foreach(&mut |t, m| rel.add(t.clone(), m));
        }
        rel
    }

    /// Replace a view's contents wholesale (the `:=` statement operation and
    /// the shuffle path of the distributed runtime).
    pub fn replace(&mut self, view: &str, contents: &Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            pool.clear();
            for (t, m) in contents.iter() {
                pool.update(t.clone(), m);
            }
        }
    }

    /// Rebuild a view's pool **from scratch** with the given contents: a
    /// fresh slab (no free-list history, no inherited capacity) populated in
    /// `contents`' iteration order, with the same secondary indexes.
    ///
    /// This is the restore/canonicalization primitive of the fault-tolerant
    /// runtime.  [`Database::replace`] deliberately recycles the existing
    /// slab (its `clear` refills the free list, so re-inserts fill slots
    /// top-down), which makes the resulting slot order — and therefore scan
    /// order, and therefore float accumulation in later batches — a function
    /// of the pool's entire history.  `rebuild` makes it a pure function of
    /// `contents`: feeding it the same canonical relation always produces
    /// bit-identical scan order, no matter what the pool held before.
    pub fn rebuild(&mut self, view: &str, contents: &Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            let mut fresh =
                RecordPool::with_secondary_indexes(pool.arity(), &pool.secondary_index_specs());
            for (t, m) in contents.iter() {
                fresh.update(t.clone(), m);
            }
            *pool = fresh;
        }
    }

    /// Rebuild every pool in canonical (sorted-content) layout: the
    /// epoch barrier of the fault-tolerant runtime.  After `canonicalize`,
    /// each pool's slot order is a pure function of its *contents*, so a
    /// node restored from a canonical snapshot and a node that simply kept
    /// running agree bit-for-bit on all subsequent scan-order-dependent
    /// float arithmetic.
    pub fn canonicalize(&mut self) {
        let views: Vec<String> = self.pools.keys().cloned().collect();
        for v in views {
            let canon = self.snapshot(&v).canonical();
            self.rebuild(&v, &canon);
        }
    }

    /// Merge a relation into a view (`+=`).
    pub fn merge(&mut self, view: &str, contents: &Relation) {
        if let Some(pool) = self.pools.get_mut(view) {
            for (t, m) in contents.iter() {
                pool.update(t.clone(), m);
            }
        }
    }

    /// Total live records across all views.
    pub fn total_records(&self) -> usize {
        self.pools.values().map(RecordPool::len).sum()
    }

    /// Approximate total payload bytes across all views.
    pub fn total_bytes(&self) -> usize {
        self.pools.values().map(RecordPool::payload_bytes).sum()
    }

    /// Aggregate storage-operation counters across all pools.
    pub fn counters(&self) -> PoolCounters {
        let mut c = PoolCounters::default();
        for p in self.pools.values() {
            c.add(&p.counters());
        }
        c
    }

    /// Reset per-pool counters.
    pub fn reset_counters(&self) {
        for p in self.pools.values() {
            p.reset_counters();
        }
    }
}

/// Catalog adapter: resolves `View` references against the database pools
/// and `Delta` references against the current batch.  Slices of a delta go
/// through the catalog's [`SliceIndex`]; slices of a view go through the
/// record pool's secondary index.
pub struct ExecCatalog<'a> {
    pub db: &'a Database,
    pub deltas: &'a HashMap<String, Relation>,
    index: SliceIndex<'a>,
}

impl<'a> ExecCatalog<'a> {
    /// A catalog for one statement execution; its borrows keep the views and
    /// the batch unchanged for as long as its slice index lives.
    pub fn new(db: &'a Database, deltas: &'a HashMap<String, Relation>) -> Self {
        ExecCatalog {
            db,
            deltas,
            index: SliceIndex::default(),
        }
    }
}

impl Catalog for ExecCatalog<'_> {
    fn scan(&self, name: &str, kind: RelKind, f: &mut dyn FnMut(&Tuple, Mult)) {
        match kind {
            RelKind::Delta => {
                if let Some(rel) = self.deltas.get(name) {
                    for (t, m) in rel.iter() {
                        f(t, m);
                    }
                }
            }
            _ => {
                if let Some(pool) = self.db.pool(name) {
                    pool.foreach(f);
                }
            }
        }
    }

    fn lookup(&self, name: &str, kind: RelKind, key: &Tuple) -> Mult {
        match kind {
            RelKind::Delta => self.deltas.get(name).map(|r| r.get(key)).unwrap_or(0.0),
            _ => self.db.pool(name).map(|p| p.get(key)).unwrap_or(0.0),
        }
    }

    fn slice(
        &self,
        name: &str,
        kind: RelKind,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&Tuple, Mult),
    ) {
        match kind {
            RelKind::Delta => {
                if let Some(rel) = self.deltas.get(name) {
                    self.index.slice(rel, positions, key_vals, f);
                }
            }
            _ => {
                if let Some(pool) = self.db.pool(name) {
                    pool.slice(positions, key_vals, f);
                }
            }
        }
    }
}

/// One relation's hash index over one column list: each key's matches, in
/// the relation's iteration order.
type Buckets<'a> = HashMap<Vec<Value>, Vec<(&'a Tuple, Mult)>, DetState>;

/// A built index: the relation, its key columns and its buckets.
type Built<'a> = (&'a Relation, Vec<usize>, Rc<Buckets<'a>>);

/// Lazily built hash indexes over borrowed [`Relation`]s: the build side of
/// a hash join whose input is an exchange buffer or an update batch rather
/// than a record pool.
///
/// The first [`slice`](SliceIndex::slice) of a relation over a column list
/// groups the whole relation by those columns, filling each bucket in
/// [`Relation::iter`] order; later slices with the same relation and
/// columns are one hash lookup.  A bucket therefore lists its matches in
/// exactly the order a filtered scan of `rel.iter()` would emit them, so
/// callers see the same tuples, multiplicities and float operation order
/// as the default [`Catalog::slice`].  Keys compare with [`Value`]'s
/// equality, as the record pool's secondary indexes do.
///
/// A relation is identified by address.  The index borrows every relation
/// it has seen for `'a`, so none of them can change or move while it lives
/// and an entry never goes stale; a catalog owns one per statement
/// execution and drops it with the statement.
#[derive(Default)]
pub struct SliceIndex<'a> {
    built: RefCell<Vec<Built<'a>>>,
}

impl<'a> SliceIndex<'a> {
    /// Call `f` for every tuple of `rel` whose columns at `positions` equal
    /// `key_vals`, in `rel.iter()` order.
    ///
    /// `f` may itself slice through this index (the row interpreter nests
    /// one join level inside the previous level's callback): no borrow of
    /// the index is held while `f` runs.
    pub fn slice(
        &self,
        rel: &'a Relation,
        positions: &[usize],
        key_vals: &[Value],
        f: &mut dyn FnMut(&Tuple, Mult),
    ) {
        debug_assert_eq!(positions.len(), key_vals.len());
        if let Some(bucket) = self.buckets(rel, positions).get(key_vals) {
            for &(t, m) in bucket {
                f(t, m);
            }
        }
    }

    /// The index of `rel` over `positions`, built on first use.
    fn buckets(&self, rel: &'a Relation, positions: &[usize]) -> Rc<Buckets<'a>> {
        let mut built = self.built.borrow_mut();
        if let Some((_, _, buckets)) = built
            .iter()
            .find(|(r, p, _)| std::ptr::eq(*r, rel) && p == positions)
        {
            return Rc::clone(buckets);
        }
        let mut buckets = Buckets::default();
        for (t, m) in rel.iter() {
            let key = positions.iter().map(|&p| t.get(p).clone()).collect();
            buckets.entry(key).or_default().push((t, m));
        }
        let buckets = Rc::new(buckets);
        built.push((rel, positions.to_vec(), Rc::clone(&buckets)));
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;
    use hotdog_algebra::tuple;
    use hotdog_ivm::compile_recursive;

    fn sample_plan() -> MaintenancePlan {
        compile_recursive(
            "Q",
            &sum(
                ["B"],
                join_all([
                    rel("R", ["A", "B"]),
                    rel("S", ["B", "C"]),
                    rel("T", ["C", "D"]),
                ]),
            ),
        )
    }

    #[test]
    fn database_creates_pool_per_view() {
        let plan = sample_plan();
        let db = Database::for_plan(&plan);
        assert_eq!(db.view_names().count(), plan.views.len());
        assert!(db.pool("Q").is_some());
    }

    #[test]
    fn database_creates_required_secondary_indexes() {
        let plan = sample_plan();
        let db = Database::for_plan(&plan);
        for spec in plan.index_requirements() {
            assert!(
                db.pool(&spec.view)
                    .unwrap()
                    .has_secondary_index(&spec.positions),
                "missing index {:?} on {}",
                spec.positions,
                spec.view
            );
        }
    }

    #[test]
    fn snapshot_merge_replace_round_trip() {
        let plan = sample_plan();
        let mut db = Database::for_plan(&plan);
        let rel =
            Relation::from_pairs(Schema::new(["B"]), vec![(tuple![1], 2.0), (tuple![2], 3.0)]);
        db.merge("Q", &rel);
        assert!(db.snapshot("Q").approx_eq(&rel));
        let rel2 = Relation::from_pairs(Schema::new(["B"]), vec![(tuple![9], 1.0)]);
        db.replace("Q", &rel2);
        assert!(db.snapshot("Q").approx_eq(&rel2));
        assert_eq!(db.total_records(), 1);
    }

    /// `(tuple, multiplicity bits)` emitted by one slice, in emission order.
    fn probe<'a>(
        index: &SliceIndex<'a>,
        rel: &'a Relation,
        positions: &[usize],
        key: &[Value],
    ) -> Vec<(Tuple, u64)> {
        let mut out = Vec::new();
        // Probe twice: the first call builds the index, the second reuses it.
        for _ in 0..2 {
            out.clear();
            index.slice(rel, positions, key, &mut |t, m| {
                out.push((t.clone(), m.to_bits()))
            });
        }
        out
    }

    /// The default `Catalog::slice`: a filtered scan of `rel.iter()`.
    fn filtered_scan(rel: &Relation, positions: &[usize], key: &[Value]) -> Vec<(Tuple, u64)> {
        rel.iter()
            .filter(|(t, _)| positions.iter().zip(key).all(|(&p, v)| t.get(p) == v))
            .map(|(t, m)| (t.clone(), m.to_bits()))
            .collect()
    }

    fn three_column_relation() -> Relation {
        let mut rel = Relation::new(Schema::new(["A", "B", "C"]));
        for i in 0..60i64 {
            rel.add(tuple![i % 4, i % 3, i], 0.1 * (i + 1) as f64);
        }
        rel
    }

    #[test]
    fn slice_index_matches_filtered_scan_on_one_column() {
        let rel = three_column_relation();
        let index = SliceIndex::default();
        for k in 0..4i64 {
            let key = [Value::Long(k)];
            let got = probe(&index, &rel, &[0], &key);
            // Each key matches several rows.
            assert_eq!(got.len(), 15);
            assert_eq!(got, filtered_scan(&rel, &[0], &key));
        }
        assert!(probe(&index, &rel, &[0], &[Value::Long(99)]).is_empty());
    }

    #[test]
    fn slice_index_matches_filtered_scan_on_several_columns() {
        let rel = three_column_relation();
        let index = SliceIndex::default();
        for (a, b) in [(0i64, 0i64), (1, 2), (3, 1)] {
            let key = [Value::Long(a), Value::Long(b)];
            let got = probe(&index, &rel, &[0, 1], &key);
            assert_eq!(got.len(), 5);
            assert_eq!(got, filtered_scan(&rel, &[0, 1], &key));
            // Same columns in the other order: a separate index.
            let rev = [Value::Long(b), Value::Long(a)];
            assert_eq!(probe(&index, &rel, &[1, 0], &rev), got);
        }
        // A key absent from the relation.
        let absent = [Value::Long(0), Value::Long(7)];
        assert!(probe(&index, &rel, &[0, 1], &absent).is_empty());
        assert!(filtered_scan(&rel, &[0, 1], &absent).is_empty());
    }

    #[test]
    fn slice_index_skips_entries_cancelled_to_zero() {
        let mut rel = three_column_relation();
        for i in (0..60i64).step_by(2) {
            rel.add(tuple![i % 4, i % 3, i], -0.1 * (i + 1) as f64);
        }
        assert_eq!(rel.len(), 30);
        let index = SliceIndex::default();
        for k in 0..4i64 {
            let key = [Value::Long(k)];
            assert_eq!(
                probe(&index, &rel, &[0], &key),
                filtered_scan(&rel, &[0], &key)
            );
        }
        // Keys 0 and 2 only ever appeared on cancelled rows.
        assert!(probe(&index, &rel, &[0], &[Value::Long(2)]).is_empty());
    }

    #[test]
    fn slice_index_keeps_relations_apart_and_allows_nested_probes() {
        let outer = three_column_relation();
        let inner = Relation::from_pairs(
            Schema::new(["A", "D"]),
            (0..8i64).map(|i| (tuple![i % 4, i], 1.5)),
        );
        let index = SliceIndex::default();
        let mut pairs = 0;
        index.slice(&outer, &[0], &[Value::Long(1)], &mut |t, _| {
            // A probe into another relation from inside the callback, as
            // the row interpreter's nested join loop does.
            index.slice(&inner, &[0], std::slice::from_ref(t.get(0)), &mut |_, _| {
                pairs += 1
            });
        });
        assert_eq!(pairs, 15 * 2);
    }

    #[test]
    fn exec_catalog_routes_delta_and_view_kinds() {
        let plan = sample_plan();
        let mut db = Database::for_plan(&plan);
        db.merge(
            "Q",
            &Relation::from_pairs(Schema::new(["B"]), vec![(tuple![5], 7.0)]),
        );
        let mut deltas = HashMap::new();
        deltas.insert(
            "R".to_string(),
            Relation::from_pairs(Schema::new(["A", "B"]), vec![(tuple![1, 5], 1.0)]),
        );
        let cat = ExecCatalog::new(&db, &deltas);
        assert_eq!(cat.lookup("Q", RelKind::View, &tuple![5]), 7.0);
        assert_eq!(cat.lookup("R", RelKind::Delta, &tuple![1, 5]), 1.0);
        let mut n = 0;
        cat.scan("R", RelKind::Delta, &mut |_, _| n += 1);
        assert_eq!(n, 1);
    }
}
