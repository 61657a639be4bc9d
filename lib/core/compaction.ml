open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event

let compact variant inst sched =
  Probe.count "compaction.runs";
  let m = Schedule.machines sched in
  let out = Schedule.create m in
  let machine_front = Array.make m Rat.zero in
  let place u (seg : Schedule.seg) start =
    Schedule.add out ~machine:u { seg with Schedule.start };
    machine_front.(u) <- Rat.add start seg.Schedule.dur
  in
  (match variant with
  | Variant.Splittable | Variant.Nonpreemptive ->
    (* a per-machine left shift: a non-preemptive job stays on one machine *)
    for u = 0 to m - 1 do
      List.iter (fun seg -> place u seg machine_front.(u)) (Schedule.segments sched u)
    done
  | Variant.Preemptive ->
    (* a heap of machines keyed by their next segment merges their sorted lists *)
    let job_front = Array.make (Instance.n inst) Rat.zero in
    let next = Array.init m (Schedule.segments sched) and heap = Array.init m Fun.id in
    let before u v =
      match (next.(u), next.(v)) with
      | s :: _, t :: _ ->
        let c = Rat.compare s.Schedule.start t.Schedule.start in
        c < 0 || (c = 0 && u < v)
      | _ :: _, [] -> true (* exhausted machines sink *)
      | [], _ -> false
    in
    let rec sift i u =
      let l = (2 * i) + 1 in
      let c = if l + 1 < m && before heap.(l + 1) heap.(l) then l + 1 else l in
      if l < m && before heap.(c) u then (heap.(i) <- heap.(c); sift c u) else heap.(i) <- u
    in
    for i = (m / 2) - 1 downto 0 do sift i heap.(i) done;
    let rec drain u =
      match next.(u) with
      | [] -> ()
      | seg :: rest ->
        (match seg.Schedule.content with
        | Schedule.Setup _ -> place u seg machine_front.(u)
        | Schedule.Work j ->
          place u seg (Rat.max machine_front.(u) job_front.(j));
          job_front.(j) <- machine_front.(u));
        next.(u) <- rest;
        sift 0 u;
        drain heap.(0)
    in
    drain heap.(0));
  if Probe.enabled () then begin
    (* gap volume closed = total leftward shift; busy time is invariant,
       so end-of-machine deltas sum exactly the idle removed *)
    let closed = ref Rat.zero in
    for u = 0 to m - 1 do
      closed := Rat.add !closed (Rat.sub (Schedule.machine_end sched u) (Schedule.machine_end out u))
    done;
    Probe.event (Event.Gap_closed { volume = !closed })
  end;
  out
