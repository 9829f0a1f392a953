//! Compilation of local maintenance programs into distributed programs
//! (Section 4): location annotation, insertion of location transformers
//! (`Scatter`, `Repart`, `Gather`), intra-statement optimization,
//! single-transformer form, CSE/DCE of transformer statements, and the
//! block fusion algorithm of Appendix C.3.
//!
//! The intra-statement optimization picks each statement's execution
//! partitioning by what it would ship.  Every materialized view that is
//! not on the chosen key moves whole (re-partitioned or replicated), while
//! the batch and the statement's result are delta-sized, so the choice
//! minimizes the weighted views moved first and the delta-sized moves
//! second: a trigger's traffic scales with its batch, not with the state.

use crate::partition::{LocTag, PartitionFn, PartitioningSpec};
use hotdog_algebra::expr::{Expr, RelKind, RelRef};
use hotdog_algebra::schema::Schema;
use hotdog_ivm::{MaintenancePlan, StmtOp};
use std::collections::HashMap;
use std::fmt;

/// Optimization levels of the distributed compiler, matching the staged
/// evaluation of Figure 13.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum OptLevel {
    /// Naive well-formed program: no simplifications, one block per
    /// statement, no sharing of transformer outputs.
    O0,
    /// + transformer simplification rules: each statement executes on the
    ///   candidate key (the target's, or a distributed input's) that moves
    ///   the fewest whole views, weighted by key cardinality, then the
    ///   fewest batch-sized scatters and result re-partitions.
    O1,
    /// + block fusion (merge commuting statements into compound blocks).
    O2,
    /// + common subexpression and dead code elimination across transformer
    ///   statements.
    O3,
}

impl OptLevel {
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::O0 => "O0 (naive)",
            OptLevel::O1 => "O1 (+simplifications)",
            OptLevel::O2 => "O2 (+block fusion)",
            OptLevel::O3 => "O3 (+CSE/DCE)",
        }
    }
}

/// Where a statement executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StmtMode {
    /// On the driver.
    Local,
    /// On every worker, over its partitions.
    Distributed,
}

/// A network transformer (the only mechanism for moving data).
#[derive(Clone, PartialEq, Debug)]
pub enum Transform {
    /// Partition driver-resident data over the workers.
    Scatter(PartitionFn),
    /// Re-partition worker-resident data.
    Repart(PartitionFn),
    /// Collect worker-resident data at the driver.
    Gather,
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transform::Scatter(p) => write!(f, "SCATTER<{p}>"),
            Transform::Repart(p) => write!(f, "REPARTITION<{p}>"),
            Transform::Gather => write!(f, "GATHER"),
        }
    }
}

/// The body of a distributed statement.
#[derive(Clone, Debug)]
pub enum DistStmtKind {
    /// Evaluate an algebra expression (locally or on every worker).
    Compute(Expr),
    /// Move the named relation across the network.
    Transform { kind: Transform, source: String },
}

/// One statement of a distributed maintenance program.
#[derive(Clone, Debug)]
pub struct DistStatement {
    pub target: String,
    pub target_schema: Schema,
    pub op: StmtOp,
    pub kind: DistStmtKind,
    pub mode: StmtMode,
}

impl DistStatement {
    /// Relation names this statement reads.
    pub fn reads(&self) -> Vec<String> {
        match &self.kind {
            DistStmtKind::Compute(e) => e.relations().into_iter().map(|r| r.name).collect(),
            DistStmtKind::Transform { source, .. } => vec![source.clone()],
        }
    }

    /// Whether this statement is a location transformer.
    pub fn is_transformer(&self) -> bool {
        matches!(self.kind, DistStmtKind::Transform { .. })
    }
}

impl fmt::Display for DistStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            StmtMode::Local => "LOCAL",
            StmtMode::Distributed => "DISTRIBUTED",
        };
        let op = match self.op {
            StmtOp::AddTo => "+=",
            StmtOp::SetTo => ":=",
        };
        match &self.kind {
            DistStmtKind::Compute(e) => write!(f, "{mode} {} {op} {e}", self.target),
            DistStmtKind::Transform { kind, source } => {
                write!(f, "{mode} {} {op} {kind}{{ {source} }}", self.target)
            }
        }
    }
}

/// A block of statements with a common execution mode (the unit the driver
/// ships to the workers — one Spark stage per distributed block).
#[derive(Clone, Debug)]
pub struct Block {
    pub mode: StmtMode,
    pub statements: Vec<DistStatement>,
}

/// The distributed program of one trigger.
#[derive(Clone, Debug)]
pub struct TriggerProgram {
    pub relation: String,
    pub relation_schema: Schema,
    /// Fused statement blocks, in execution order.
    pub blocks: Vec<Block>,
}

impl TriggerProgram {
    pub fn statements(&self) -> impl Iterator<Item = &DistStatement> {
        self.blocks.iter().flat_map(|b| b.statements.iter())
    }

    /// Number of stages needed to process one batch: every distributed block
    /// is one parallel stage, and every worker-side shuffle (`Repart`) or
    /// collection (`Gather`) ends a stage as well — transformers are the
    /// pipeline breakers of Section 4.3.2.
    pub fn stages(&self) -> usize {
        let dist_blocks = self
            .blocks
            .iter()
            .filter(|b| b.mode == StmtMode::Distributed)
            .count();
        let shuffles = self
            .statements()
            .filter(|s| {
                matches!(
                    &s.kind,
                    DistStmtKind::Transform {
                        kind: Transform::Repart(_),
                        ..
                    } | DistStmtKind::Transform {
                        kind: Transform::Gather,
                        ..
                    }
                )
            })
            .count();
        dist_blocks + shuffles
    }

    /// Number of jobs = number of local→distributed transitions (the driver
    /// launches one job per maximal run of distributed work).
    pub fn jobs(&self) -> usize {
        let mut jobs = 0;
        let mut prev_local = true;
        for b in &self.blocks {
            match b.mode {
                StmtMode::Distributed => {
                    if prev_local {
                        jobs += 1;
                    }
                    prev_local = false;
                }
                StmtMode::Local => prev_local = true,
            }
        }
        jobs.max(1)
    }

    pub fn pretty(&self) -> String {
        let mut out = format!(
            "-- ON UPDATE {} ({} blocks)\n",
            self.relation,
            self.blocks.len()
        );
        for (i, b) in self.blocks.iter().enumerate() {
            out.push_str(&format!(
                "block {} [{}]\n",
                i,
                if b.mode == StmtMode::Local {
                    "local"
                } else {
                    "distributed"
                }
            ));
            for s in &b.statements {
                out.push_str(&format!("  {s}\n"));
            }
        }
        out
    }
}

/// A fully compiled distributed plan: the local plan, the partitioning
/// specification, the per-trigger programs, and the schemas/locations of the
/// temporary exchange views the programs introduce.
#[derive(Clone, Debug)]
pub struct DistributedPlan {
    pub plan: MaintenancePlan,
    pub spec: PartitioningSpec,
    pub opt: OptLevel,
    pub programs: Vec<TriggerProgram>,
    /// Temporary views created by the compiler: name -> (schema, location).
    pub temps: HashMap<String, (Schema, LocTag)>,
}

impl DistributedPlan {
    pub fn program(&self, relation: &str) -> Option<&TriggerProgram> {
        self.programs.iter().find(|p| p.relation == relation)
    }

    /// Location of any view or temp.
    pub fn location(&self, name: &str) -> LocTag {
        if let Some((_, tag)) = self.temps.get(name) {
            tag.clone()
        } else {
            self.spec.tag(name)
        }
    }

    /// Schema of any view or temp.
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        if let Some((s, _)) = self.temps.get(name) {
            Some(s.clone())
        } else {
            self.plan.view(name).map(|v| v.schema.clone())
        }
    }

    /// Total jobs and stages needed to process one batch touching every
    /// relation once (the per-query complexity of Table 3).
    pub fn complexity(&self) -> (usize, usize) {
        let jobs = self.programs.iter().map(|p| p.jobs()).max().unwrap_or(0);
        let stages = self.programs.iter().map(|p| p.stages()).max().unwrap_or(0);
        (jobs, stages)
    }

    pub fn pretty(&self) -> String {
        let mut out = format!(
            "-- distributed plan `{}` [{}], {} programs\n",
            self.plan.query_name,
            self.opt.label(),
            self.programs.len()
        );
        for p in &self.programs {
            out.push_str(&p.pretty());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Lowering<'a> {
    plan: &'a MaintenancePlan,
    spec: &'a PartitioningSpec,
    opt: OptLevel,
    temps: HashMap<String, (Schema, LocTag)>,
    temp_counter: usize,
}

/// Compile a local maintenance plan into a distributed program for the given
/// partitioning specification and optimization level.
pub fn compile_distributed(
    plan: &MaintenancePlan,
    spec: &PartitioningSpec,
    opt: OptLevel,
) -> DistributedPlan {
    let mut lowering = Lowering {
        plan,
        spec,
        opt,
        temps: HashMap::new(),
        temp_counter: 0,
    };
    let mut programs = Vec::new();
    for trigger in &plan.triggers {
        programs.push(lowering.lower_trigger(trigger));
    }
    DistributedPlan {
        plan: plan.clone(),
        spec: spec.clone(),
        opt,
        programs,
        temps: lowering.temps,
    }
}

impl Lowering<'_> {
    fn fresh_temp(&mut self, prefix: &str, schema: Schema, tag: LocTag) -> String {
        self.temp_counter += 1;
        let name = format!("{prefix}_{}", self.temp_counter);
        self.temps.insert(name.clone(), (schema, tag));
        name
    }

    fn view_schema(&self, name: &str) -> Schema {
        self.plan
            .view(name)
            .map(|v| v.schema.clone())
            .unwrap_or_default()
    }

    /// What a statement executed on `key` moves, as `(state, delta)`,
    /// compared lexicographically.  *State* sums
    /// [`PartitioningSpec::weight`] over the distributed inputs that are
    /// not on `key` and that this trigger has not already shipped (by that
    /// key or replicated; `shipped` is the trigger's transformer cache).
    /// *Delta* counts the batch-sized moves: a scatter of the batch by a
    /// partitioning this trigger has not scattered yet (`trigger` is `None`
    /// when the statement does not read the batch), and a re-partition of
    /// the result when `key` is not the target's.
    fn movement_cost(
        &self,
        key: &[String],
        dist_refs: &[(&RelRef, Vec<String>)],
        target_cols: Option<&Vec<String>>,
        trigger: Option<&hotdog_ivm::Trigger>,
        shipped: &HashMap<String, String>,
    ) -> (usize, usize) {
        let state = dist_refs
            .iter()
            .filter(|(r, cols)| {
                let by_key = move_fn(&self.view_schema(&r.name), key);
                cols.as_slice() != key
                    && !shipped.contains_key(&repart_cache_key(&r.name, &by_key))
                    && !shipped.contains_key(&repart_cache_key(&r.name, &PartitionFn::Replicate))
            })
            .map(|(r, _)| self.spec.weight(&r.name))
            .sum();
        let scatter = trigger.is_some_and(|t| {
            let pf = scatter_fn(&t.relation_schema, key);
            !shipped.contains_key(&scatter_cache_key(&t.relation, &pf))
        });
        let result_moves = target_cols.is_some_and(|tc| tc.as_slice() != key);
        (state, usize::from(scatter) + usize::from(result_moves))
    }

    fn lower_trigger(&mut self, trigger: &hotdog_ivm::Trigger) -> TriggerProgram {
        let mut statements: Vec<DistStatement> = Vec::new();
        // Cache of scatter/broadcast/repart temps created for this trigger:
        // what it has already shipped (read by `movement_cost` at O1+) and
        // the temps CSE shares at O3 (below O3 every use gets its own copy).
        let mut scatter_cache: HashMap<String, String> = HashMap::new();

        for stmt in &trigger.statements {
            self.lower_statement(trigger, stmt, &mut statements, &mut scatter_cache);
        }

        if self.opt >= OptLevel::O3 {
            dead_code_elimination(&mut statements, self.plan);
        }

        // Promote every statement into its own block, then fuse.
        let mut blocks: Vec<Block> = statements
            .into_iter()
            .map(|s| Block {
                mode: s.mode,
                statements: vec![s],
            })
            .collect();
        if self.opt >= OptLevel::O2 {
            blocks = fuse_blocks(blocks);
        }
        TriggerProgram {
            relation: trigger.relation.clone(),
            relation_schema: trigger.relation_schema.clone(),
            blocks,
        }
    }

    /// Lower one maintenance statement into local/distributed statements and
    /// the transformer statements they need.
    fn lower_statement(
        &mut self,
        trigger: &hotdog_ivm::Trigger,
        stmt: &hotdog_ivm::Statement,
        out: &mut Vec<DistStatement>,
        scatter_cache: &mut HashMap<String, String>,
    ) {
        let target_tag = self.spec.tag(&stmt.target);
        let view_refs: Vec<RelRef> = stmt
            .expr
            .relations()
            .into_iter()
            .filter(|r| r.kind == RelKind::View)
            .collect();
        let uses_delta = stmt.expr.has_delta_relations();
        let dist_refs: Vec<(&RelRef, Vec<String>)> = view_refs
            .iter()
            .filter_map(|r| match self.spec.tag(&r.name) {
                LocTag::Dist(p) => Some((r, p.columns().to_vec())),
                _ => None,
            })
            .collect();

        // Purely local statement: local target, no distributed inputs and no
        // batch involvement.  Statements that consume the update batch are
        // always distributed — in the paper's setting the batch partitions
        // live on the workers, so even single-aggregate queries like Q6 run
        // one parallel stage of partial aggregation followed by a gather.
        if !target_tag.is_distributed() && dist_refs.is_empty() && !uses_delta {
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Compute(stmt.expr.clone()),
                mode: StmtMode::Local,
            });
            return;
        }

        // Choose the execution partitioning.  The naive O0 program always
        // executes on the first input's partitioning and re-partitions the
        // result.  From O1 on, the candidates are the target's key (when
        // some input can be brought to it directly, Example 4.1) and each
        // distributed input's key; the one with the lowest
        // `movement_cost` wins: first the fewest (weighted) whole views
        // shipped, then the fewest batch-sized moves.  Ties keep the
        // earliest candidate: the target's key, else the first input's.
        let target_cols: Option<Vec<String>> = match &target_tag {
            LocTag::Dist(p) => Some(p.columns().to_vec()),
            _ => None,
        };
        // A partitioning key is usable if some distributed input already has
        // it, or the batch can be scattered by it.
        let delta_schema = &trigger.relation_schema;
        let key_usable = |cols: &Vec<String>| {
            dist_refs.iter().any(|(_, c)| c == cols)
                || (uses_delta && cols.iter().all(|c| delta_schema.contains(c)))
        };
        let first_input_key = || {
            dist_refs
                .first()
                .map(|(_, c)| c.clone())
                .or_else(|| target_cols.clone())
                .unwrap_or_default()
        };
        let exec_key: Vec<String> = if self.opt >= OptLevel::O1 {
            let mut candidates: Vec<Vec<String>> = target_cols
                .iter()
                .filter(|tc| key_usable(tc))
                .cloned()
                .collect();
            for (_, c) in &dist_refs {
                if !candidates.contains(c) {
                    candidates.push(c.clone());
                }
            }
            candidates
                .into_iter()
                .min_by_key(|key| {
                    self.movement_cost(
                        key,
                        &dist_refs,
                        target_cols.as_ref(),
                        uses_delta.then_some(trigger),
                        scatter_cache,
                    )
                })
                .unwrap_or_else(first_input_key)
        } else {
            first_input_key()
        };

        // Prepare the inputs: re-partition or broadcast views that are not
        // aligned with the execution key, broadcast local views, scatter the
        // batch.
        let mut expr = stmt.expr.clone();
        let mut any_partitioned_input = false;
        for r in &view_refs {
            match self.spec.tag(&r.name) {
                LocTag::Dist(p) => {
                    if p.columns() == exec_key.as_slice() {
                        any_partitioned_input = true;
                        continue;
                    }
                    // Re-partition (or replicate when the key is not part of
                    // the view's schema).  With CSE, a copy this trigger
                    // already shipped by that key or replicated is reused.
                    let schema = self.view_schema(&r.name);
                    let pf = move_fn(&schema, &exec_key);
                    let cache_key = repart_cache_key(&r.name, &pf);
                    let cached = if self.opt >= OptLevel::O3 {
                        scatter_cache
                            .get(&cache_key)
                            .map(|t| (t.clone(), pf.clone()))
                            .or_else(|| {
                                let replicated = repart_cache_key(&r.name, &PartitionFn::Replicate);
                                scatter_cache
                                    .get(&replicated)
                                    .map(|t| (t.clone(), PartitionFn::Replicate))
                            })
                    } else {
                        None
                    };
                    let (temp, pf) = match cached {
                        Some(hit) => hit,
                        None => {
                            let tag = match &pf {
                                PartitionFn::Replicate => LocTag::Replicated,
                                _ => LocTag::Dist(pf.clone()),
                            };
                            let t = self.fresh_temp("repartition", schema.clone(), tag);
                            out.push(DistStatement {
                                target: t.clone(),
                                target_schema: schema,
                                op: StmtOp::SetTo,
                                kind: DistStmtKind::Transform {
                                    kind: Transform::Repart(pf.clone()),
                                    source: r.name.clone(),
                                },
                                mode: StmtMode::Local,
                            });
                            scatter_cache.insert(cache_key, t.clone());
                            (t, pf)
                        }
                    };
                    if pf != PartitionFn::Replicate {
                        any_partitioned_input = true;
                    }
                    expr = rename_view(&expr, &r.name, &temp);
                }
                LocTag::Local => {
                    // Broadcast a driver-resident view so workers can read it.
                    let schema = self.view_schema(&r.name);
                    let cache_key = format!("bcast:{}", r.name);
                    let temp = if self.opt >= OptLevel::O3 {
                        scatter_cache.get(&cache_key).cloned()
                    } else {
                        None
                    };
                    let temp = match temp {
                        Some(t) => t,
                        None => {
                            let t =
                                self.fresh_temp("broadcast", schema.clone(), LocTag::Replicated);
                            out.push(DistStatement {
                                target: t.clone(),
                                target_schema: schema,
                                op: StmtOp::SetTo,
                                kind: DistStmtKind::Transform {
                                    kind: Transform::Scatter(PartitionFn::Replicate),
                                    source: r.name.clone(),
                                },
                                mode: StmtMode::Local,
                            });
                            scatter_cache.insert(cache_key, t.clone());
                            t
                        }
                    };
                    expr = rename_view(&expr, &r.name, &temp);
                }
                _ => {}
            }
        }

        // Scatter the update batch to the workers.
        if uses_delta {
            let pf = scatter_fn(delta_schema, &exec_key);
            if pf != PartitionFn::Replicate {
                any_partitioned_input = true;
            }
            let cache_key = scatter_cache_key(&trigger.relation, &pf);
            let temp = if self.opt >= OptLevel::O3 {
                scatter_cache.get(&cache_key).cloned()
            } else {
                None
            };
            let temp = match temp {
                Some(t) => t,
                None => {
                    let tag = match &pf {
                        PartitionFn::Replicate => LocTag::Replicated,
                        _ => LocTag::Dist(pf.clone()),
                    };
                    let t = self.fresh_temp("scatter", delta_schema.clone(), tag);
                    out.push(DistStatement {
                        target: t.clone(),
                        target_schema: delta_schema.clone(),
                        op: StmtOp::SetTo,
                        kind: DistStmtKind::Transform {
                            kind: Transform::Scatter(pf),
                            source: format!("Δ{}", trigger.relation),
                        },
                        mode: StmtMode::Local,
                    });
                    scatter_cache.insert(cache_key, t.clone());
                    t
                }
            };
            expr = delta_to_view(&expr, &trigger.relation, &temp);
        }

        if !any_partitioned_input {
            // Degenerate case: nothing anchors the computation to a
            // partitioning — run on the driver and push the result out.
            let result_temp =
                self.fresh_temp("local_result", stmt.target_schema.clone(), LocTag::Local);
            out.push(DistStatement {
                target: result_temp.clone(),
                target_schema: stmt.target_schema.clone(),
                op: StmtOp::SetTo,
                kind: DistStmtKind::Compute(stmt.expr.clone()),
                mode: StmtMode::Local,
            });
            let pf = match &target_tag {
                LocTag::Dist(p) => p.clone(),
                _ => PartitionFn::Replicate,
            };
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Transform {
                    kind: Transform::Scatter(pf),
                    source: result_temp,
                },
                mode: StmtMode::Local,
            });
            return;
        }

        // Decide how the per-worker result reaches the target view.
        let aligned_with_target = match &target_tag {
            LocTag::Dist(p) => p.columns() == exec_key.as_slice(),
            _ => false,
        };
        let simplification_on = self.opt >= OptLevel::O1;
        if aligned_with_target && simplification_on {
            // Workers merge straight into their partition of the target.
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Compute(expr),
                mode: StmtMode::Distributed,
            });
        } else {
            // Compute a distributed partial result, then move it to the
            // target's location (Gather for local targets, Repart for
            // differently-partitioned ones).
            let result_temp =
                self.fresh_temp("partial", stmt.target_schema.clone(), LocTag::Random);
            out.push(DistStatement {
                target: result_temp.clone(),
                target_schema: stmt.target_schema.clone(),
                op: StmtOp::SetTo,
                kind: DistStmtKind::Compute(expr),
                mode: StmtMode::Distributed,
            });
            let kind = match &target_tag {
                LocTag::Dist(p) => Transform::Repart(p.clone()),
                _ => Transform::Gather,
            };
            out.push(DistStatement {
                target: stmt.target.clone(),
                target_schema: stmt.target_schema.clone(),
                op: stmt.op,
                kind: DistStmtKind::Transform {
                    kind,
                    source: result_temp,
                },
                mode: StmtMode::Local,
            });
        }
    }
}

/// How a view that is not on `key` is brought to it: re-partitioned by
/// `key` when its schema has every key column, replicated otherwise.
fn move_fn(schema: &Schema, key: &[String]) -> PartitionFn {
    if !key.is_empty() && key.iter().all(|c| schema.contains(c)) {
        PartitionFn::by(key.to_vec())
    } else {
        PartitionFn::Replicate
    }
}

/// How the update batch is scattered for a statement executed on `key`:
/// by `key` when the batch has every key column, replicated when it does
/// not, and spread over all its columns when there is no key, so every
/// worker aggregates a disjoint fraction of it.
fn scatter_fn(delta_schema: &Schema, key: &[String]) -> PartitionFn {
    if key.is_empty() {
        PartitionFn::by(delta_schema.columns().to_vec())
    } else {
        move_fn(delta_schema, key)
    }
}

/// Transformer-cache keys of one trigger: a view moved by `pf`, and the
/// trigger's batch scattered by `pf`.
fn repart_cache_key(view: &str, pf: &PartitionFn) -> String {
    format!("repart:{view}:{pf}")
}

fn scatter_cache_key(relation: &str, pf: &PartitionFn) -> String {
    format!("scatter:Δ{relation}:{pf}")
}

/// Replace every view reference named `from` with a reference to `to`
/// (same columns).
fn rename_view(expr: &Expr, from: &str, to: &str) -> Expr {
    match expr {
        Expr::Rel(r) if r.kind == RelKind::View && r.name == from => Expr::Rel(RelRef {
            name: to.to_string(),
            kind: RelKind::View,
            cols: r.cols.clone(),
        }),
        other => other.map_children(&mut |c| rename_view(c, from, to)),
    }
}

/// Replace every delta reference to `relation` with a view reference to the
/// scattered batch `temp`.
fn delta_to_view(expr: &Expr, relation: &str, temp: &str) -> Expr {
    match expr {
        Expr::Rel(r) if r.kind == RelKind::Delta && r.name == relation => Expr::Rel(RelRef {
            name: temp.to_string(),
            kind: RelKind::View,
            cols: r.cols.clone(),
        }),
        other => other.map_children(&mut |c| delta_to_view(c, relation, temp)),
    }
}

/// Drop transformer statements whose output temp is never read (dead code
/// elimination over exchange buffers).
fn dead_code_elimination(statements: &mut Vec<DistStatement>, plan: &MaintenancePlan) {
    let real_views: Vec<&str> = plan.views.iter().map(|v| v.name.as_str()).collect();
    loop {
        let mut read: Vec<String> = Vec::new();
        for s in statements.iter() {
            read.extend(s.reads());
        }
        let before = statements.len();
        statements.retain(|s| real_views.contains(&s.target.as_str()) || read.contains(&s.target));
        if statements.len() == before {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Block fusion (Appendix C.3)
// ---------------------------------------------------------------------------

/// Whether two statements commute: neither reads the other's target.
fn stmts_commute(a: &DistStatement, b: &DistStatement) -> bool {
    !b.reads().contains(&a.target) && !a.reads().contains(&b.target) && a.target != b.target
}

fn blocks_commute(a: &Block, b: &Block) -> bool {
    a.statements
        .iter()
        .all(|x| b.statements.iter().all(|y| stmts_commute(x, y)))
}

/// Merge the head block with every later block of the same mode that
/// commutes with all blocks in between (the `mergeIntoHead` step).
fn merge_into_head(head: Block, tail: Vec<Block>) -> (Block, Vec<Block>) {
    let mut head = head;
    let mut rest: Vec<Block> = Vec::new();
    for b in tail {
        if head.mode == b.mode && rest.iter().all(|r| blocks_commute(r, &b)) {
            head.statements.extend(b.statements);
        } else {
            rest.push(b);
        }
    }
    (head, rest)
}

/// The recursive block fusion algorithm: repeatedly merge the first block
/// with every compatible later block, then recurse on the remainder.
pub fn fuse_blocks(blocks: Vec<Block>) -> Vec<Block> {
    let mut input = blocks;
    let mut out = Vec::new();
    loop {
        if input.is_empty() {
            return out;
        }
        let head = input.remove(0);
        let before = head.statements.len();
        let (merged, rest) = merge_into_head(head, input);
        if merged.statements.len() == before {
            out.push(merged);
            input = rest;
        } else {
            // Try to grow the head further (the `merge(hd2::tl2)` branch).
            input = std::iter::once(merged).chain(rest).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotdog_algebra::expr::*;
    use hotdog_ivm::compile_recursive;

    fn example_plan() -> MaintenancePlan {
        compile_recursive(
            "Q",
            &sum(
                ["B"],
                join_all([
                    rel("R", ["OK", "B"]),
                    rel("S", ["B", "CK"]),
                    rel("T", ["CK", "D"]),
                ]),
            ),
        )
    }

    fn spec_for(plan: &MaintenancePlan) -> PartitioningSpec {
        PartitioningSpec::heuristic(plan, &["OK", "CK"])
    }

    #[test]
    fn compile_produces_one_program_per_trigger() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        assert_eq!(dp.programs.len(), plan.triggers.len());
        for p in &dp.programs {
            assert!(!p.blocks.is_empty());
        }
    }

    #[test]
    fn optimization_reduces_statement_and_block_count() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let naive = compile_distributed(&plan, &spec, OptLevel::O0);
        let opt = compile_distributed(&plan, &spec, OptLevel::O3);
        let count = |dp: &DistributedPlan| {
            dp.programs
                .iter()
                .map(|p| p.statements().count())
                .sum::<usize>()
        };
        let blocks =
            |dp: &DistributedPlan| dp.programs.iter().map(|p| p.blocks.len()).sum::<usize>();
        assert!(
            count(&opt) <= count(&naive),
            "O3 {} vs O0 {}",
            count(&opt),
            count(&naive)
        );
        assert!(
            blocks(&opt) < blocks(&naive),
            "O3 {} vs O0 {}",
            blocks(&opt),
            blocks(&naive)
        );
    }

    #[test]
    fn block_fusion_merges_commuting_blocks() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let unfused = compile_distributed(&plan, &spec, OptLevel::O1);
        let fused = compile_distributed(&plan, &spec, OptLevel::O2);
        for (a, b) in unfused.programs.iter().zip(fused.programs.iter()) {
            assert!(b.blocks.len() <= a.blocks.len());
        }
    }

    #[test]
    fn batch_consuming_statements_are_distributed_even_for_local_views() {
        // Single-relation scalar aggregate with every view local (the Q6
        // shape): the batch is scattered, each worker computes a partial
        // aggregate of its fraction, and a gather merges them at the driver.
        let plan = compile_recursive(
            "Q",
            &sum_total(join(rel("R", ["A", "B"]), cmp_lit("B", CmpOp::Gt, 3))),
        );
        let mut spec = PartitioningSpec::new();
        spec.set("Q", LocTag::Local);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        let program = dp.program("R").unwrap();
        // one parallel stage of partial aggregation + one gather stage
        assert_eq!(program.stages(), 2, "{}", program.pretty());
        assert!(program.statements().any(|s| matches!(
            &s.kind,
            DistStmtKind::Transform {
                kind: Transform::Scatter(_),
                ..
            }
        )));
        assert!(program.statements().any(|s| matches!(
            &s.kind,
            DistStmtKind::Transform {
                kind: Transform::Gather,
                ..
            }
        )));
    }

    #[test]
    fn distributed_statements_only_reference_worker_resident_relations() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        for p in &dp.programs {
            for s in p.statements() {
                if s.mode == StmtMode::Distributed {
                    if let DistStmtKind::Compute(e) = &s.kind {
                        for r in e.relations() {
                            let tag = dp.location(&r.name);
                            assert!(
                                tag.is_distributed(),
                                "distributed statement reads driver-resident {} in\n{}",
                                r.name,
                                p.pretty()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn jobs_and_stages_are_positive_and_bounded() {
        let plan = example_plan();
        let spec = spec_for(&plan);
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        let (jobs, stages) = dp.complexity();
        assert!((1..=5).contains(&jobs), "jobs {jobs}");
        assert!((1..=10).contains(&stages), "stages {stages}");
    }

    /// The catalog query's plan at `opt` under the heuristic spec.
    fn catalog_plan(id: &str, opt: OptLevel) -> DistributedPlan {
        let q = hotdog_workload::query(id).expect("catalog query");
        let plan = compile_recursive(q.id, &q.expr);
        let spec = PartitioningSpec::heuristic(&plan, &q.partition_keys);
        compile_distributed(&plan, &spec, opt)
    }

    fn transformers(p: &TriggerProgram) -> Vec<String> {
        p.statements()
            .filter(|s| s.is_transformer())
            .map(|s| s.to_string())
            .collect()
    }

    /// `Repart` statements of a program whose source is a materialized
    /// view (rather than a statement's partial result), as printed.
    fn view_reparts(dp: &DistributedPlan, p: &TriggerProgram) -> Vec<String> {
        p.statements()
            .filter(|s| match &s.kind {
                DistStmtKind::Transform {
                    kind: Transform::Repart(_),
                    source,
                } => dp.plan.view(source).is_some(),
                _ => false,
            })
            .map(|s| s.to_string())
            .collect()
    }

    /// A one-trigger plan on `R(A, B, C)` over hand-declared views, each
    /// statement `target += expr`.
    fn hand_plan(views: &[(&str, &[&str])], statements: Vec<(&str, Expr)>) -> MaintenancePlan {
        let views: Vec<hotdog_ivm::ViewDef> = views
            .iter()
            .map(|(name, cols)| hotdog_ivm::ViewDef {
                name: name.to_string(),
                schema: Schema::new(cols.iter().copied()),
                definition: rel(*name, cols.iter().copied()),
                is_top: false,
            })
            .collect();
        let statements = statements
            .into_iter()
            .map(|(target, expr)| hotdog_ivm::Statement {
                target: target.to_string(),
                target_schema: views
                    .iter()
                    .find(|v| v.name == target)
                    .unwrap()
                    .schema
                    .clone(),
                op: StmtOp::AddTo,
                expr,
            })
            .collect();
        MaintenancePlan {
            query_name: "H".into(),
            strategy: hotdog_ivm::Strategy::RecursiveIvm,
            top_view: views[0].name.clone(),
            views,
            triggers: vec![hotdog_ivm::Trigger {
                relation: "R".into(),
                relation_schema: Schema::new(["A", "B", "C"]),
                statements,
            }],
        }
    }

    fn dist(cols: &[&str]) -> LocTag {
        LocTag::Dist(PartitionFn::by(cols.iter().copied()))
    }

    #[test]
    fn q7_lineitem_trigger_moves_only_the_supplier_view() {
        let dp = catalog_plan("Q7", OptLevel::O3);
        let p = dp.program("LINEITEM").unwrap();
        let moved = view_reparts(&dp, p);
        assert_eq!(
            moved,
            ["LOCAL repartition_4 := REPARTITION<[*]>{ M2 }"],
            "{}",
            p.pretty()
        );
        // M2 is the view keyed on the supplier key, the smallest ranked one.
        assert_eq!(dp.spec.tag("M2"), dist(&["SK"]));
        // One batch scatter serves every statement of the trigger.
        let scatters = p
            .statements()
            .filter(|s| {
                matches!(
                    &s.kind,
                    DistStmtKind::Transform {
                        kind: Transform::Scatter(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(scatters, 1, "{}", p.pretty());
    }

    #[test]
    fn q3_programs_keep_their_transformers() {
        let o3 = catalog_plan("Q3", OptLevel::O3);
        let o3: Vec<Vec<String>> = o3.programs.iter().map(transformers).collect();
        assert_eq!(
            o3,
            [
                vec![
                    "LOCAL scatter_1 := SCATTER<[*]>{ ΔCUSTOMER }",
                    "LOCAL scatter_2 := SCATTER<[CK]>{ ΔCUSTOMER }",
                ],
                vec!["LOCAL scatter_3 := SCATTER<[OK]>{ ΔLINEITEM }"],
                vec![
                    "LOCAL repartition_4 := REPARTITION<[*]>{ M2 }",
                    "LOCAL scatter_5 := SCATTER<[OK]>{ ΔORDERS }",
                ],
            ]
        );
        let o1 = catalog_plan("Q3", OptLevel::O1);
        let o1: Vec<Vec<String>> = o1.programs.iter().map(transformers).collect();
        assert_eq!(
            o1,
            [
                vec![
                    "LOCAL scatter_1 := SCATTER<[*]>{ ΔCUSTOMER }",
                    "LOCAL scatter_2 := SCATTER<[*]>{ ΔCUSTOMER }",
                    "LOCAL scatter_3 := SCATTER<[CK]>{ ΔCUSTOMER }",
                ],
                vec![
                    "LOCAL scatter_4 := SCATTER<[OK]>{ ΔLINEITEM }",
                    "LOCAL scatter_5 := SCATTER<[OK]>{ ΔLINEITEM }",
                    "LOCAL scatter_6 := SCATTER<[OK]>{ ΔLINEITEM }",
                ],
                vec![
                    "LOCAL repartition_7 := REPARTITION<[*]>{ M2 }",
                    "LOCAL scatter_8 := SCATTER<[OK]>{ ΔORDERS }",
                    "LOCAL scatter_9 := SCATTER<[OK]>{ ΔORDERS }",
                    "LOCAL repartition_10 := REPARTITION<[*]>{ M2 }",
                    "LOCAL scatter_11 := SCATTER<[OK]>{ ΔORDERS }",
                    "LOCAL scatter_12 := SCATTER<[OK]>{ ΔORDERS }",
                ],
            ]
        );
    }

    #[test]
    fn statement_runs_on_the_view_key_instead_of_broadcasting_the_view() {
        // T is keyed on A, M on B, and M has no A column: executing on A
        // would replicate all of M, so the statement runs on B and only its
        // batch-sized result is re-partitioned to A.
        let plan = hand_plan(
            &[("T", &["A", "B"]), ("M", &["B"])],
            vec![(
                "T",
                sum(
                    ["A", "B"],
                    join(delta_rel("R", ["A", "B", "C"]), view("M", ["B"])),
                ),
            )],
        );
        let mut spec = PartitioningSpec::new();
        spec.set("T", dist(&["A"]));
        spec.set("M", dist(&["B"]));
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        let p = dp.program("R").unwrap();
        assert_eq!(
            transformers(p),
            [
                "LOCAL scatter_1 := SCATTER<[B]>{ ΔR }",
                "LOCAL T += REPARTITION<[A]>{ partial_2 }",
            ],
            "{}",
            p.pretty()
        );
        // O0 keeps its naive choice: the first input's key.
        let naive = compile_distributed(&plan, &spec, OptLevel::O0);
        assert!(view_reparts(&naive, naive.program("R").unwrap()).is_empty());
    }

    #[test]
    fn view_replicated_earlier_in_a_trigger_is_reused() {
        // The first statement runs on C and replicates V (no C column); the
        // second runs on A, where V would be re-partitioned by A, and reads
        // the replicated copy instead.
        let plan = hand_plan(
            &[
                ("T1", &["C"]),
                ("T2", &["A"]),
                ("V", &["A", "B"]),
                ("W", &["C", "D"]),
            ],
            vec![
                (
                    "T1",
                    sum(
                        ["C"],
                        join_all([
                            delta_rel("R", ["A", "B", "C"]),
                            view("V", ["A", "B"]),
                            view("W", ["C", "D"]),
                        ]),
                    ),
                ),
                (
                    "T2",
                    sum(
                        ["A"],
                        join(delta_rel("R", ["A", "B", "C"]), view("V", ["A", "B"])),
                    ),
                ),
            ],
        );
        let mut spec = PartitioningSpec::new();
        spec.set("T1", dist(&["C"]));
        spec.set("T2", dist(&["A"]));
        spec.set("V", dist(&["B"]));
        spec.set("W", dist(&["C"]));
        let dp = compile_distributed(&plan, &spec, OptLevel::O3);
        let p = dp.program("R").unwrap();
        let moved = view_reparts(&dp, p);
        assert_eq!(
            moved,
            ["LOCAL repartition_1 := REPARTITION<[*]>{ V }"],
            "{}",
            p.pretty()
        );
        let readers = p
            .statements()
            .filter(|s| s.reads().contains(&"repartition_1".to_string()))
            .count();
        assert_eq!(readers, 2, "{}", p.pretty());
        // Without CSE every statement ships its own copy.
        let o1 = compile_distributed(&plan, &spec, OptLevel::O1);
        let o1_moved = view_reparts(&o1, o1.program("R").unwrap());
        assert_eq!(
            o1_moved,
            [
                "LOCAL repartition_1 := REPARTITION<[*]>{ V }",
                "LOCAL repartition_3 := REPARTITION<[A]>{ V }",
            ]
        );
    }

    #[test]
    fn spec_without_ranks_weighs_every_view_equally() {
        let plan = catalog_plan("Q7", OptLevel::O3).plan;
        let ranked = PartitioningSpec::heuristic(&plan, &["OK", "SK", "CK"]);
        let mut unranked = PartitioningSpec::new();
        for (view, tag) in ranked.views() {
            unranked.set(view, tag.clone());
        }
        assert_eq!(ranked.weight("M3"), 3, "M3 is keyed on OK");
        assert_eq!(ranked.weight("M2"), 1 + 1, "M2 is keyed on SK");
        assert_eq!(ranked.weight("M5"), 1, "M5 is keyed on CK");
        for v in &plan.views {
            assert_eq!(unranked.weight(&v.name), 1, "{}", v.name);
        }
        for opt in [OptLevel::O1, OptLevel::O3] {
            let dp = compile_distributed(&plan, &unranked, opt);
            assert_eq!(dp.programs.len(), plan.triggers.len());
            for p in &dp.programs {
                assert!(p.statements().any(|s| s.target == plan.top_view));
            }
        }
    }

    #[test]
    fn catalog_moves_at_most_44_views_at_o3() {
        let mut reparts = 0;
        for q in hotdog_workload::all_queries() {
            let dp = catalog_plan(q.id, OptLevel::O3);
            reparts += dp
                .programs
                .iter()
                .map(|p| view_reparts(&dp, p).len())
                .sum::<usize>();
        }
        assert!(reparts <= 44, "{reparts} view repartitions at O3");
    }

    #[test]
    fn fuse_blocks_respects_data_dependencies() {
        // b1 writes X, b2 (different mode) separates, b3 reads X: b3 must
        // not be merged before b2 past... construct directly.
        let s = |target: &str, reads: &str, mode: StmtMode| DistStatement {
            target: target.into(),
            target_schema: Schema::new(["a"]),
            op: StmtOp::AddTo,
            kind: DistStmtKind::Compute(view(reads, ["a"])),
            mode,
        };
        let blocks = vec![
            Block {
                mode: StmtMode::Local,
                statements: vec![s("X", "A", StmtMode::Local)],
            },
            Block {
                mode: StmtMode::Distributed,
                statements: vec![s("Y", "X", StmtMode::Distributed)],
            },
            Block {
                mode: StmtMode::Local,
                statements: vec![s("Z", "Y", StmtMode::Local)],
            },
        ];
        let fused = fuse_blocks(blocks);
        // Z reads Y which is produced by the distributed block, so the two
        // local blocks must not be merged across it.
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn fuse_blocks_merges_independent_same_mode_blocks() {
        let s = |target: &str, reads: &str| DistStatement {
            target: target.into(),
            target_schema: Schema::new(["a"]),
            op: StmtOp::AddTo,
            kind: DistStmtKind::Compute(view(reads, ["a"])),
            mode: StmtMode::Local,
        };
        let blocks = vec![
            Block {
                mode: StmtMode::Local,
                statements: vec![s("X", "A")],
            },
            Block {
                mode: StmtMode::Local,
                statements: vec![s("Y", "B")],
            },
            Block {
                mode: StmtMode::Local,
                statements: vec![s("Z", "C")],
            },
        ];
        assert_eq!(fuse_blocks(blocks).len(), 1);
    }
}
