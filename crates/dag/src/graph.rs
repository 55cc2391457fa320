//! The DAG type and its builder.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{DagError, ResourceVec, Task, TaskId};

/// Ceiling on a DAG's summed task runtimes, in time slots (2^53).
///
/// A fault-free schedule never outlasts its DAG's serial work plus the
/// arrival and transfer waits, so with the runtimes summing to at most
/// 2^53 the simulator's `clock + slots` stays far below `u64::MAX`. 2^53
/// is also the largest integer a JSON number (an `f64`) holds exactly.
pub const MAX_TOTAL_RUNTIME: u64 = 1 << 53;

/// A directed edge `from -> to`: `to` may only start after `from` finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Predecessor task.
    pub from: TaskId,
    /// Successor task.
    pub to: TaskId,
}

/// Incrementally builds a [`Dag`].
///
/// The builder records tasks and precedence edges, and [`DagBuilder::build`]
/// validates the whole graph (acyclicity, demand sanity, consistent resource
/// dimensionality) before freezing it into an immutable [`Dag`].
///
/// # Example
///
/// ```
/// use spear_dag::{DagBuilder, Task, ResourceVec};
///
/// # fn main() -> Result<(), spear_dag::DagError> {
/// let mut b = DagBuilder::new(2);
/// let map0 = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.2, 0.1])));
/// let map1 = b.add_task(Task::new(4, ResourceVec::from_slice(&[0.2, 0.1])));
/// let red = b.add_task(Task::new(6, ResourceVec::from_slice(&[0.5, 0.6])));
/// b.add_edge(map0, red)?;
/// b.add_edge(map1, red)?;
/// let dag = b.build()?;
/// assert_eq!(dag.sources(), vec![map0, map1]);
/// assert_eq!(dag.sinks(), vec![red]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    dims: usize,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
}

impl DagBuilder {
    /// Creates a builder for a graph whose tasks have `dims` resource
    /// dimensions.
    pub fn new(dims: usize) -> Self {
        DagBuilder {
            dims,
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a task, returning its id (dense, in insertion order).
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId::new(self.tasks.len());
        self.tasks.push(task);
        id
    }

    /// Adds a precedence edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for dangling endpoints,
    /// [`DagError::SelfLoop`] for `v -> v`, and [`DagError::DuplicateEdge`]
    /// if the edge already exists.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), DagError> {
        if from.index() >= self.tasks.len() {
            return Err(DagError::UnknownTask(from));
        }
        if to.index() >= self.tasks.len() {
            return Err(DagError::UnknownTask(to));
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        let edge = Edge { from, to };
        if self.edges.contains(&edge) {
            return Err(DagError::DuplicateEdge(from, to));
        }
        self.edges.push(edge);
        Ok(())
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks have been added yet.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Empty`] for a task-less graph,
    /// [`DagError::ZeroRuntime`] / [`DagError::InvalidDemand`] /
    /// [`DagError::DimensionMismatch`] for per-task problems,
    /// [`DagError::RuntimeOverflow`] if the runtimes sum to more than
    /// [`MAX_TOTAL_RUNTIME`], and [`DagError::Cycle`] if the edges contain
    /// a directed cycle.
    pub fn build(self) -> Result<Dag, DagError> {
        if self.tasks.is_empty() {
            return Err(DagError::Empty);
        }
        let mut total_runtime = 0u64;
        for (i, task) in self.tasks.iter().enumerate() {
            let id = TaskId::new(i);
            if task.runtime() == 0 {
                return Err(DagError::ZeroRuntime(id));
            }
            total_runtime = total_runtime.saturating_add(task.runtime());
            if total_runtime > MAX_TOTAL_RUNTIME {
                return Err(DagError::RuntimeOverflow);
            }
            if !task.demand().is_valid_demand() {
                return Err(DagError::InvalidDemand(id));
            }
            if task.demand().dims() != self.dims {
                return Err(DagError::DimensionMismatch {
                    task: id,
                    expected: self.dims,
                    actual: task.demand().dims(),
                });
            }
        }

        let n = self.tasks.len();
        let mut children = vec![Vec::new(); n];
        let mut parents = vec![Vec::new(); n];
        for e in &self.edges {
            children[e.from.index()].push(e.to);
            parents[e.to.index()].push(e.from);
        }
        for list in children.iter_mut().chain(parents.iter_mut()) {
            list.sort_unstable();
        }

        let topo = topological_order(&children, &parents).ok_or(DagError::Cycle)?;

        Ok(Dag {
            dims: self.dims,
            tasks: self.tasks,
            edges: self.edges,
            children,
            parents,
            topo,
        })
    }
}

/// Kahn's algorithm; `None` if a cycle exists.
fn topological_order(children: &[Vec<TaskId>], parents: &[Vec<TaskId>]) -> Option<Vec<TaskId>> {
    let n = children.len();
    let mut indegree: Vec<usize> = parents.iter().map(Vec::len).collect();
    let mut queue: Vec<TaskId> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(TaskId::new)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &c in &children[v.index()] {
            indegree[c.index()] -= 1;
            if indegree[c.index()] == 0 {
                queue.push(c);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// An immutable, validated directed acyclic graph of [`Task`]s.
///
/// Construction goes through [`DagBuilder`], which guarantees that a `Dag`
/// is never empty, never cyclic, and that every task has a positive runtime
/// and a valid demand vector of the declared dimensionality. A precomputed
/// topological order is stored for the analyses in
/// [`analysis`](crate::analysis).
///
/// Deserialization goes through the builder too: it reads `dims`, `tasks`
/// and `edges` and ignores the serialized adjacency lists and order, so
/// a hand-edited file cannot smuggle in a graph the builder would reject.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dag {
    dims: usize,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    children: Vec<Vec<TaskId>>,
    parents: Vec<Vec<TaskId>>,
    topo: Vec<TaskId>,
}

impl Deserialize for Dag {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name| v.get_field(name).ok_or_else(|| DeError::missing(name));
        let invalid = |e: DagError| DeError(format!("invalid DAG: {e}"));
        let mut builder = DagBuilder::new(usize::from_value(field("dims")?)?);
        for task in Vec::<Task>::from_value(field("tasks")?)? {
            builder.add_task(task);
        }
        for edge in Vec::<Edge>::from_value(field("edges")?)? {
            builder.add_edge(edge.from, edge.to).map_err(invalid)?;
        }
        builder.build().map_err(invalid)
    }
}

impl Dag {
    /// Number of resource dimensions of every task demand.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false`: built DAGs have at least one task.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// All tasks, indexable by [`TaskId::index`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Iterates over all task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::new)
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Direct successors of `id`, sorted by id.
    pub fn children(&self, id: TaskId) -> &[TaskId] {
        &self.children[id.index()]
    }

    /// Direct predecessors of `id`, sorted by id.
    pub fn parents(&self, id: TaskId) -> &[TaskId] {
        &self.parents[id.index()]
    }

    /// Tasks without predecessors (ready at time 0), sorted by id.
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.parents(t).is_empty())
            .collect()
    }

    /// Tasks without successors, sorted by id.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.children(t).is_empty())
            .collect()
    }

    /// A topological order of all tasks (sources first).
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Sum of all task runtimes — the serial makespan lower bound when only
    /// one task can run at a time.
    pub fn total_work(&self) -> u64 {
        self.tasks.iter().map(Task::runtime).sum()
    }

    /// Length (total runtime) of the longest path through the graph; equals
    /// the largest b-level. No schedule can beat this makespan.
    pub fn critical_path_length(&self) -> u64 {
        crate::analysis::b_levels(self)
            .into_iter()
            .max()
            .unwrap_or(0)
    }

    /// Largest runtime of any task.
    pub fn max_runtime(&self) -> u64 {
        self.tasks.iter().map(Task::runtime).max().unwrap_or(0)
    }

    /// Component-wise maximum demand over all tasks.
    pub fn max_demand(&self) -> ResourceVec {
        let mut m = ResourceVec::zeros(self.dims);
        for t in &self.tasks {
            m = m.component_max(t.demand());
        }
        m
    }

    /// Lower bound on the makespan from the per-dimension total load:
    /// `max_r ceil(Σ_v runtime(v)·demand(v)[r] / capacity[r])`, combined with
    /// the critical-path bound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` has a different dimensionality than the graph.
    pub fn makespan_lower_bound(&self, capacity: &ResourceVec) -> u64 {
        assert_eq!(capacity.dims(), self.dims, "resource dimension mismatch");
        let mut load_bound = 0u64;
        for r in 0..self.dims {
            if capacity[r] <= 0.0 {
                continue;
            }
            let load: f64 = self.tasks.iter().map(|t| t.load(r)).sum();
            load_bound = load_bound.max((load / capacity[r]).ceil() as u64);
        }
        load_bound.max(self.critical_path_length())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 -> {1,2} -> 3
        let mut b = DagBuilder::new(1);
        let t0 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5])));
        let t1 = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5])));
        let t2 = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.5])));
        let t3 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5])));
        b.add_edge(t0, t1).unwrap();
        b.add_edge(t0, t2).unwrap();
        b.add_edge(t1, t3).unwrap();
        b.add_edge(t2, t3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.sources(), vec![TaskId::new(0)]);
        assert_eq!(d.sinks(), vec![TaskId::new(3)]);
        assert_eq!(d.children(TaskId::new(0)).len(), 2);
        assert_eq!(d.parents(TaskId::new(3)).len(), 2);
    }

    #[test]
    fn topological_order_respects_edges() {
        let d = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; d.len()];
            for (i, &t) in d.topological_order().iter().enumerate() {
                pos[t.index()] = i;
            }
            pos
        };
        for e in d.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn detects_cycle() {
        let mut b = DagBuilder::new(1);
        let t0 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        let t1 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        b.add_edge(t0, t1).unwrap();
        b.add_edge(t1, t0).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(DagBuilder::new(1).build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn rejects_zero_runtime() {
        let mut b = DagBuilder::new(1);
        let t = b.add_task(Task::new(0, ResourceVec::from_slice(&[0.1])));
        assert_eq!(b.build().unwrap_err(), DagError::ZeroRuntime(t));
    }

    #[test]
    fn rejects_bad_demand() {
        let mut b = DagBuilder::new(1);
        let t = b.add_task(Task::new(1, ResourceVec::from_slice(&[-1.0])));
        assert_eq!(b.build().unwrap_err(), DagError::InvalidDemand(t));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let mut b = DagBuilder::new(2);
        let t = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        assert_eq!(
            b.build().unwrap_err(),
            DagError::DimensionMismatch {
                task: t,
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = DagBuilder::new(1);
        let t0 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        let t1 = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        assert_eq!(
            b.add_edge(t0, TaskId::new(9)).unwrap_err(),
            DagError::UnknownTask(TaskId::new(9))
        );
        assert_eq!(
            b.add_edge(TaskId::new(9), t0).unwrap_err(),
            DagError::UnknownTask(TaskId::new(9))
        );
        assert_eq!(b.add_edge(t0, t0).unwrap_err(), DagError::SelfLoop(t0));
        b.add_edge(t0, t1).unwrap();
        assert_eq!(
            b.add_edge(t0, t1).unwrap_err(),
            DagError::DuplicateEdge(t0, t1)
        );
    }

    #[test]
    fn critical_path_of_diamond() {
        // 1 + 3 + 1 through the longer branch.
        assert_eq!(diamond().critical_path_length(), 5);
    }

    #[test]
    fn total_work_and_max_helpers() {
        let d = diamond();
        assert_eq!(d.total_work(), 7);
        assert_eq!(d.max_runtime(), 3);
        assert_eq!(d.max_demand().as_slice(), &[0.5]);
    }

    #[test]
    fn makespan_lower_bound_combines_load_and_cp() {
        let d = diamond();
        // load = 7 * 0.5 = 3.5 / cap 1.0 => 4; cp = 5 => bound 5.
        assert_eq!(d.makespan_lower_bound(&ResourceVec::from_slice(&[1.0])), 5);
        // Tight capacity: load bound dominates. 3.5 / 0.5 = 7.
        assert_eq!(d.makespan_lower_bound(&ResourceVec::from_slice(&[0.5])), 7);
    }

    #[test]
    fn serde_roundtrip() {
        let d = diamond();
        let json = serde_json::to_string(&d).unwrap();
        let back: Dag = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn rejects_total_runtime_above_the_ceiling() {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(
            MAX_TOTAL_RUNTIME,
            ResourceVec::from_slice(&[0.1]),
        ));
        assert!(b.clone().build().is_ok());
        b.add_task(Task::new(1, ResourceVec::from_slice(&[0.1])));
        assert_eq!(b.build().unwrap_err(), DagError::RuntimeOverflow);
        // A sum that would wrap `u64` is caught rather than wrapped.
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(u64::MAX, ResourceVec::from_slice(&[0.1])));
        b.add_task(Task::new(5, ResourceVec::from_slice(&[0.1])));
        assert_eq!(b.build().unwrap_err(), DagError::RuntimeOverflow);
    }

    /// The diamond's serialized tree with `edit` applied to its top-level
    /// entry `key`, read back through the validating deserializer.
    fn reload_edited(key: &str, edit: impl FnOnce(&mut Value)) -> Result<Dag, DeError> {
        let mut v = diamond().to_value();
        let Value::Obj(entries) = &mut v else {
            panic!("a DAG serializes to an object")
        };
        edit(&mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1);
        Dag::from_value(&v)
    }

    /// Sets the field `name` of task 1 in a serialized `tasks` array.
    fn set_task1(tasks: &mut Value, name: &str, value: Value) {
        let Value::Arr(tasks) = tasks else {
            panic!("tasks is an array")
        };
        let Value::Obj(fields) = &mut tasks[1] else {
            panic!("a task is an object")
        };
        fields.iter_mut().find(|(k, _)| k == name).unwrap().1 = value;
    }

    #[test]
    fn out_of_range_topo_entries_are_ignored() {
        let back = reload_edited("topo", |topo| {
            *topo = Value::Arr(vec![Value::Num(999.0); 4]);
        })
        .unwrap();
        assert_eq!(back, diamond());
    }

    #[test]
    fn unknown_parent_ids_are_ignored() {
        let back = reload_edited("parents", |parents| {
            *parents = Value::Arr(vec![Value::Arr(vec![Value::Num(999.0)]); 4]);
        })
        .unwrap();
        assert_eq!(back, diamond());
    }

    #[test]
    fn deserializing_a_short_demand_is_rejected() {
        let err = reload_edited("tasks", |tasks| {
            set_task1(tasks, "demand", Value::Arr(vec![]));
        })
        .unwrap_err();
        assert!(err.0.contains("task t1 has 0 resource dimensions"), "{err}");
    }

    #[test]
    fn deserializing_a_zero_runtime_is_rejected() {
        let err = reload_edited("tasks", |tasks| {
            set_task1(tasks, "runtime", Value::Num(0.0));
        })
        .unwrap_err();
        assert!(err.0.contains("task t1 has zero runtime"), "{err}");
    }

    #[test]
    fn deserializing_a_wrapping_runtime_is_rejected() {
        let err = reload_edited("tasks", |tasks| {
            set_task1(tasks, "runtime", Value::Num(u64::MAX as f64));
        })
        .unwrap_err();
        assert!(err.0.contains("runtimes sum to more than"), "{err}");
    }

    #[test]
    fn deserializing_a_self_edge_is_rejected() {
        let err = reload_edited("edges", |edges| {
            let Value::Arr(edges) = edges else {
                panic!("edges is an array")
            };
            edges.push(
                Edge {
                    from: TaskId::new(2),
                    to: TaskId::new(2),
                }
                .to_value(),
            );
        })
        .unwrap_err();
        assert!(err.0.contains("self-loop on task t2"), "{err}");
    }

    #[test]
    fn deserializing_a_negative_demand_is_rejected() {
        let err = reload_edited("tasks", |tasks| {
            set_task1(tasks, "demand", Value::Arr(vec![Value::Num(-0.5)]));
        })
        .unwrap_err();
        assert!(err.0.contains("task t1 has a negative"), "{err}");
    }
}
