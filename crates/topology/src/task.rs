//! Task instantiation.
//!
//! A *task* is one parallel instance of a component — the unit R-Storm
//! schedules. Storm runs each task on an executor thread; its default of
//! one task per executor is what every scheduler and the simulator assume,
//! so executors are not modelled separately.

use crate::ids::{ComponentId, TaskId};
use crate::resource::ResourceRequest;
use crate::topology::Topology;
use std::collections::HashMap;
use std::fmt;

/// One parallel instance of a component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Task {
    /// Dense, topology-unique task id.
    pub id: TaskId,
    /// The component this task instantiates.
    pub component: ComponentId,
    /// This task's index among its component's tasks (0-based).
    pub instance: u32,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]#{}",
            self.component,
            self.instance,
            self.id.as_u32()
        )
    }
}

/// The full set of tasks instantiated from a topology, with dense ids in
/// component declaration order.
#[derive(Debug, Clone)]
pub struct TaskSet {
    tasks: Vec<Task>,
    by_component: HashMap<ComponentId, Vec<TaskId>>,
    resources: Vec<ResourceRequest>,
}

impl TaskSet {
    /// Instantiates every component of `topology` into its tasks.
    pub fn instantiate(topology: &Topology) -> Self {
        let mut tasks = Vec::with_capacity(topology.total_tasks() as usize);
        let mut by_component: HashMap<ComponentId, Vec<TaskId>> = HashMap::new();
        let mut resources = Vec::with_capacity(tasks.capacity());
        let mut next = 0u32;
        for component in topology.components() {
            let ids = by_component.entry(component.id().clone()).or_default();
            for instance in 0..component.parallelism() {
                let id = TaskId(next);
                next += 1;
                tasks.push(Task {
                    id,
                    component: component.id().clone(),
                    instance,
                });
                resources.push(*component.resources());
                ids.push(id);
            }
        }
        Self {
            tasks,
            by_component,
            resources,
        }
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns true if there are no tasks (cannot happen for a validated
    /// topology, which always has a spout with parallelism ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Looks up a task by id.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// The resource demand of a task.
    pub fn resources(&self, id: TaskId) -> Option<&ResourceRequest> {
        self.resources.get(id.index())
    }

    /// Task ids belonging to a component, in instance order.
    pub fn tasks_of(&self, component: &str) -> &[TaskId] {
        self.by_component.get(component).map_or(&[], Vec::as_slice)
    }

    /// Iterates over `(component, tasks)` pairs in arbitrary order.
    pub fn by_component(&self) -> impl Iterator<Item = (&ComponentId, &[TaskId])> {
        self.by_component.iter().map(|(c, t)| (c, t.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    fn topology() -> Topology {
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 3).set_cpu_load(30.0);
        b.set_bolt("b1", 2).shuffle_grouping("s");
        b.set_bolt("b2", 4).shuffle_grouping("b1");
        b.build().unwrap()
    }

    #[test]
    fn dense_ids_in_declaration_order() {
        let ts = topology().task_set();
        assert_eq!(ts.len(), 9);
        assert!(!ts.is_empty());
        let ids: Vec<u32> = ts.tasks().iter().map(|t| t.id.as_u32()).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
        assert_eq!(ts.tasks_of("s").len(), 3);
        assert_eq!(ts.tasks_of("b1"), &[TaskId(3), TaskId(4)]);
        assert_eq!(ts.tasks_of("b2").len(), 4);
        assert_eq!(ts.tasks_of("nope"), &[] as &[TaskId]);
    }

    #[test]
    fn instances_are_zero_based_per_component() {
        let ts = topology().task_set();
        let b2_instances: Vec<u32> = ts
            .tasks()
            .iter()
            .filter(|t| t.component.as_str() == "b2")
            .map(|t| t.instance)
            .collect();
        assert_eq!(b2_instances, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_task_resources_come_from_component() {
        let ts = topology().task_set();
        assert_eq!(ts.resources(TaskId(0)).unwrap().cpu_points, 30.0);
        assert_eq!(
            ts.resources(TaskId(3)).unwrap().cpu_points,
            ResourceRequest::DEFAULT_CPU_POINTS
        );
        assert!(ts.resources(TaskId(99)).is_none());
    }

    #[test]
    fn task_display() {
        let ts = topology().task_set();
        assert_eq!(ts.task(TaskId(3)).unwrap().to_string(), "b1[0]#3");
    }
}
