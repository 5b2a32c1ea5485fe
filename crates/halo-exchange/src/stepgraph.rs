//! Per-step dependency DAG of compute and comm tasks.
//!
//! The asynchronous-many-task systems the paper's halo optimizations echo
//! (HPX, Kokkos tasking) replace a fixed phase sequence with a graph whose
//! runner executes whatever is ready. [`StepGraph`] is the minimal version
//! of that idea for one model step: nodes are either **compute** closures
//! (run once when their dependencies are met) or **comm** closures (a
//! split-phase exchange driven by repeated non-blocking polls, e.g.
//! [`crate::Pending::poll`] under the hood). The runner
//! loop is deterministic:
//!
//! 1. poll every ready comm task non-blockingly (drives message progress);
//! 2. run the first ready compute task (lowest node index);
//! 3. if no compute is ready, block on the first ready comm task;
//! 4. repeat until every node is done.
//!
//! Determinism matters more than scheduling cleverness here: kernels
//! launch in a fixed order given a fixed arrival order of messages, and
//! the bitwise-identity contract of the split kernels holds regardless of
//! *when* a comm task completes, because the graph edges encode exactly
//! the data dependencies the dense schedule had.

use crate::integrity::HaloError;

/// One node's work.
pub enum Task<'a> {
    /// Runs once, after all dependencies completed.
    Compute(Box<dyn FnOnce() -> Result<(), HaloError> + 'a>),
    /// Driven to completion by repeated calls; the argument is `true` when
    /// the runner has nothing else to do and the task should block.
    /// Returns `Ok(true)` when done.
    Comm(Box<dyn FnMut(bool) -> Result<bool, HaloError> + 'a>),
}

enum Slot<'a> {
    Pending(Task<'a>),
    Done,
}

/// A small dependency DAG of [`Task`]s. Build with [`StepGraph::add`],
/// execute with [`StepGraph::run`].
#[derive(Default)]
pub struct StepGraph<'a> {
    nodes: Vec<Slot<'a>>,
    deps: Vec<Vec<usize>>,
}

impl<'a> StepGraph<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node depending on the listed (already-added) nodes; returns
    /// its index.
    pub fn add(&mut self, task: Task<'a>, deps: &[usize]) -> usize {
        let id = self.nodes.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of node {id} not yet added");
        }
        self.nodes.push(Slot::Pending(task));
        self.deps.push(deps.to_vec());
        id
    }

    /// Convenience: add a compute node.
    pub fn compute(
        &mut self,
        f: impl FnOnce() -> Result<(), HaloError> + 'a,
        deps: &[usize],
    ) -> usize {
        self.add(Task::Compute(Box::new(f)), deps)
    }

    /// Convenience: add a comm node.
    pub fn comm(
        &mut self,
        f: impl FnMut(bool) -> Result<bool, HaloError> + 'a,
        deps: &[usize],
    ) -> usize {
        self.add(Task::Comm(Box::new(f)), deps)
    }

    fn ready(&self, id: usize) -> bool {
        matches!(self.nodes[id], Slot::Pending(_))
            && self.deps[id]
                .iter()
                .all(|&d| matches!(self.nodes[d], Slot::Done))
    }

    /// Execute the graph to completion. Deterministic given deterministic
    /// tasks; comm tasks are polled non-blockingly whenever compute is
    /// available and blocked on only when nothing else can run.
    pub fn run(mut self) -> Result<(), HaloError> {
        let n = self.nodes.len();
        let mut remaining = n;
        while remaining > 0 {
            // 1. Non-blocking poll of every ready comm task.
            for id in 0..n {
                if !self.ready(id) {
                    continue;
                }
                if let Slot::Pending(Task::Comm(f)) = &mut self.nodes[id] {
                    if f(false)? {
                        self.nodes[id] = Slot::Done;
                        remaining -= 1;
                    }
                }
            }
            // 2. Run the first ready compute task.
            let next_compute = (0..n).find(|&id| {
                self.ready(id) && matches!(self.nodes[id], Slot::Pending(Task::Compute(_)))
            });
            if let Some(id) = next_compute {
                let Slot::Pending(Task::Compute(f)) =
                    std::mem::replace(&mut self.nodes[id], Slot::Done)
                else {
                    unreachable!("checked above")
                };
                f()?;
                remaining -= 1;
                continue;
            }
            // 3. Nothing to compute: block on the first ready comm task.
            let next_comm = (0..n).find(|&id| self.ready(id));
            match next_comm {
                Some(id) => {
                    let Slot::Pending(Task::Comm(f)) = &mut self.nodes[id] else {
                        unreachable!("only comm tasks remain ready")
                    };
                    let done = f(true)?;
                    assert!(done, "blocking comm task did not complete");
                    self.nodes[id] = Slot::Done;
                    remaining -= 1;
                }
                None => {
                    panic!("step graph stuck: {remaining} tasks remain but none is ready (cycle?)")
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn runs_in_dependency_order() {
        let log = RefCell::new(Vec::new());
        let mut g = StepGraph::new();
        let a = g.compute(
            || {
                log.borrow_mut().push("a");
                Ok(())
            },
            &[],
        );
        let b = g.compute(
            || {
                log.borrow_mut().push("b");
                Ok(())
            },
            &[a],
        );
        g.compute(
            || {
                log.borrow_mut().push("c");
                Ok(())
            },
            &[b],
        );
        g.run().unwrap();
        assert_eq!(*log.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn comm_is_polled_while_compute_runs() {
        // The comm task completes only after two polls; the runner must
        // interleave it with the independent compute instead of blocking.
        let polls = RefCell::new(0u32);
        let log = RefCell::new(Vec::new());
        let mut g = StepGraph::new();
        let comm = g.comm(
            |blocking| {
                *polls.borrow_mut() += 1;
                let done = *polls.borrow() >= 2 || blocking;
                if done {
                    log.borrow_mut().push("comm");
                }
                Ok(done)
            },
            &[],
        );
        let interior = g.compute(
            || {
                log.borrow_mut().push("interior");
                Ok(())
            },
            &[],
        );
        g.compute(
            || {
                log.borrow_mut().push("rim");
                Ok(())
            },
            &[comm, interior],
        );
        g.run().unwrap();
        let l = log.borrow();
        assert_eq!(l.last(), Some(&"rim"));
        assert!(l.contains(&"comm") && l.contains(&"interior"));
        assert!(*polls.borrow() >= 2, "comm should have been polled");
    }

    #[test]
    fn error_propagates() {
        let mut g = StepGraph::new();
        g.compute(
            || {
                Err(HaloError::RetriesExhausted {
                    src: 0,
                    tag: 0,
                    attempts: 1,
                    last: crate::integrity::FrameFault::Timeout,
                })
            },
            &[],
        );
        assert!(g.run().is_err());
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependency_rejected() {
        let mut g = StepGraph::new();
        g.compute(|| Ok(()), &[3]);
    }
}
