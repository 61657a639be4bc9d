(** Schedule compaction: close idle gaps without breaking feasibility.

    The paper's dual constructions place load deliberately high (cheap
    wraps between [T/2] and [3T/2], large-machine content parked at
    [T/2]), so their schedules contain idle time a practitioner would
    reclaim. Compaction replays every segment in original start order
    (ties broken by machine) and starts it as early as its machine — and,
    in the preemptive variant, its job's earlier pieces — allow:

    [new_start = max(machine_front, job_front)].

    By induction no segment starts later than before, so the makespan
    never increases, relative orders are preserved (setup-before-class
    stays intact), and pieces of one job stay sequential. The result is
    feasible whenever the input is (property-tested via the exact
    checker).

    Only the preemptive variant couples machines, so the replay differs
    per variant; every variant gives the same schedule as one global
    [(start, machine)] replay (property-tested against it):

    - Splittable: pieces of a job may run in parallel, so [job_front] is
      ignored and each machine is shifted left on its own, in
      [O(segments)] with no sort.
    - Non-preemptive: the same per-machine shift. Precondition: each job
      sits on one machine (true of every feasible non-preemptive
      schedule), so its earlier pieces end no later than [machine_front].
    - Preemptive: the machines' start-sorted lists are merged through a
      binary heap of machines keyed by [(next start, machine)], in
      [O(segments · log m)].

    These costs assume each machine's segments were appended in
    increasing start order; otherwise reading them through
    {!Bss_instances.Schedule.segments} sorts them first. *)

open Bss_instances

(** [compact variant inst sched] is the repacked schedule. *)
val compact : Variant.t -> Instance.t -> Schedule.t -> Schedule.t
