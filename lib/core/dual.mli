(** Shared vocabulary of dual approximation algorithms (Hochbaum–Shmoys).

    A ρ-dual approximation receives the input and a makespan guess [T] and
    either computes a feasible schedule of makespan at most [ρT], or rejects
    [T], certifying [T < OPT]. The paper's 3/2-duals (Theorems 4, 5, 7, 9)
    reject through one of the load/machine-count inequalities below. *)

open Bss_util
open Bss_instances

(** Why a guess [T] was rejected; each constructor certifies [T < OPT]. *)
type rejection =
  | Below_trivial_bound of { bound : Rat.t }
      (** [T] is under a per-variant trivial lower bound ([s_max] for
          splittable, [max_i (s_i + t^(i)_max)] otherwise). *)
  | Load_exceeds of { required : Rat.t; available : Rat.t }
      (** the paper's [mT < L_x] test fired: total obligatory load beats
          [m·T] *)
  | Machines_exceed of { required : int; available : int }
      (** the paper's [m < m_x] test fired: obligatory machine count beats
          [m] *)

type outcome =
  | Accepted of Schedule.t  (** feasible, makespan [<= ρT] *)
  | Rejected of rejection  (** certified [T < OPT] *)

(** A dual algorithm, split at its decision. [test inst tee] runs every
    rejection check and builds nothing; [construct inst tee] builds the
    schedule for a guess [test] accepted (its result is unspecified on a
    rejected guess). A search probes many guesses with [test] and calls
    [construct] once. *)
type algorithm = {
  test : Instance.t -> Rat.t -> (unit, rejection) result;
  construct : Instance.t -> Rat.t -> Schedule.t;
}

(** [run d inst tee] is [d.test], then [d.construct] if it accepts. *)
val run : algorithm -> Instance.t -> Rat.t -> outcome

val pp_rejection : Format.formatter -> rejection -> unit
val pp_outcome : Format.formatter -> outcome -> unit

(** [accepted o] extracts the schedule of an [Accepted] outcome. *)
val accepted : outcome -> Schedule.t option

(** [is_accepted o]. *)
val is_accepted : outcome -> bool
