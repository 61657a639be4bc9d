open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

type result = { schedule : Schedule.t; accepted : Rat.t; bound_tests : int }

(* The search half of Theorem 3: locate T* = min accepted guess without
   constructing a schedule. *)
let find_t_star inst =
  let m = inst.Instance.m in
  let smax = Rat.of_int inst.Instance.s_max in
  let tests = ref 0 in
  (* The O(c) acceptance test of Theorem 7 with the left-closed s_max
     clamp; monotone in [tee]. *)
  let accept tee =
    incr tests;
    Guard.tick "splittable_cj.bound_test";
    Probe.count "splittable_cj.bound_tests";
    Result.is_ok (Splittable_dual.test inst tee)
  in
  (* [accept] on a region breakpoint vs. on a class-jump point: same test,
     separate counters, so a profile attributes the O(log c) region phase
     and the O(log m) jump phases individually (Theorem 3's accounting). *)
  let accept_region t =
    Probe.count "splittable_cj.region_steps";
    accept t
  in
  let accept_jump t =
    Probe.count "splittable_cj.jump_steps";
    accept t
  in
  (* Step 1-2: region search over partition breakpoints {0, 2 s_i, 2N}. *)
  let candidates =
    let setups = Array.map (fun s -> Rat.of_int (2 * s)) inst.Instance.setups in
    Array.sort Rat.compare setups;
    Array.append (Array.append [| Rat.zero |] setups) [| Rat.of_int (2 * inst.Instance.total) |]
  in
  (* First accepted candidate: index 0 (T = 0) is rejected, the last
     (T = 2N >= 2·OPT) is accepted. *)
  let first_true =
    let lo = ref 0 and hi = ref (Array.length candidates - 1) in
    (* invariant: candidates.(!lo) rejected, candidates.(!hi) accepted *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if accept_region candidates.(mid) then hi := mid else lo := mid
    done;
    !hi
  in
  let lo = ref candidates.(first_true - 1) and hi = ref candidates.(first_true) in
  (* Expensive set on the region's interior (constant there). *)
  let interior () = Rat.div_int (Rat.add !lo !hi) 2 in
  let expensive_interior =
    let mid = interior () in
    List.filter (fun i -> Partition.is_expensive inst mid i) (List.init (Instance.c inst) (fun i -> i))
  in
  (* Jumps of class [i] strictly inside (!lo, !hi) are 2 P_i / κ for
     κ ∈ [κ_min i, κ_max i]; κ is capped at m+1 because β_i > m rejects. *)
  let two_p i = Rat.of_int (2 * inst.Instance.class_load.(i)) in
  let kappa_min i = Rat.floor_int (Rat.div (two_p i) !hi) + 1 in
  let kappa_max i =
    let cap = m + 1 in
    if Rat.is_zero !lo then cap
    else begin
      let bound = Rat.ceil_int (Rat.div (two_p i) !lo) - 1 in
      min cap bound
    end
  in
  (* Step 5-6: binary search over the fastest class's jumps. *)
  (match expensive_interior with
  | [] -> ()
  | _ :: _ ->
    let f =
      List.fold_left
        (fun best i -> if inst.Instance.class_load.(i) > inst.Instance.class_load.(best) then i else best)
        (List.hd expensive_interior) expensive_interior
    in
    let jump i kappa = Rat.div (two_p i) (Rat.of_int kappa) in
    let kmin = kappa_min f and kmax = kappa_max f in
    if kmin <= kmax then begin
      (* jump f κ is decreasing in κ; accept is monotone increasing in T,
         so accept (jump f κ) is monotone decreasing in κ. *)
      if not (accept_jump (jump f kmin)) then lo := jump f kmin
      else if accept_jump (jump f kmax) then begin
        hi := jump f kmax;
        (* κ was capped only when the capped jump is rejected, so reaching
           here means kmax was the true range end: no f-jumps below. *)
        ()
      end
      else begin
        (* invariant: accept (jump f !a), not (accept (jump f !b)) *)
        let a = ref kmin and b = ref kmax in
        while !b - !a > 1 do
          let midk = (!a + !b) / 2 in
          if accept_jump (jump f midk) then a := midk else b := midk
        done;
        lo := jump f !b;
        hi := jump f !a
      end
    end;
    (* Step 7-8: every class now jumps at most once inside (!lo, !hi)
       (Lemma 3). Collect and binary search those jumps. *)
    let jumps = ref [] in
    List.iter
      (fun i ->
        let kmin = kappa_min i and kmax = kappa_max i in
        (* Lemma 3 bounds the count to 1; tolerate a couple defensively. *)
        let kmax = min kmax (kmin + 3) in
        for kappa = kmin to kmax do
          let t = jump i kappa in
          if Rat.( < ) !lo t && Rat.( < ) t !hi then jumps := t :: !jumps
        done)
      expensive_interior;
    let jumps = List.sort_uniq Rat.compare !jumps in
    if Probe.enabled () then Probe.count ~n:(List.length jumps) "splittable_cj.jump_candidates";
    if jumps <> [] then begin
      let arr = Array.of_list jumps in
      let n = Array.length arr in
      (* binary search first accepted jump; endpoints !lo/!hi keep their
         rejected/accepted roles *)
      if accept_jump arr.(0) then hi := arr.(0)
      else if not (accept_jump arr.(n - 1)) then lo := arr.(n - 1)
      else begin
        let a = ref 0 and b = ref (n - 1) in
        (* invariant: arr.(!a) rejected, arr.(!b) accepted *)
        while !b - !a > 1 do
          let midk = (!a + !b) / 2 in
          if accept_jump arr.(midk) then b := midk else a := midk
        done;
        lo := arr.(!a);
        hi := arr.(!b)
      end
    end);
  if Probe.enabled () then
    Probe.event (Event.Interval_exit { source = "splittable_cj"; lo = !lo; hi = !hi });
  (* Step 9: inside (!lo, !hi) no quantity jumps, so acceptance is
     T >= max(s_max, L_split/m) — or never, when the machine test binds. *)
  let t_star =
    (* bounds are right-continuous step functions with no jump inside
       (!lo, !hi), hence constant there — also at points below s_max, where
       only the clamp rejects. *)
    let mid = interior () in
    let l_split, m_exp = Splittable_dual.bounds inst mid in
    if m_exp > m then !hi
    else begin
      let t_crit = Rat.max smax (Rat.div_int l_split m) in
      if Rat.( < ) t_crit !hi then begin
        assert (Rat.( > ) t_crit !lo);
        t_crit
      end
      else !hi
    end
  in
  if Probe.enabled () then
    Probe.event (Event.Note { source = "splittable_cj"; key = "t_star"; value = Rat.to_string t_star });
  (t_star, !tests)

let solve inst =
  let t_star, tests = find_t_star inst in
  match Probe.span "construction" (fun () -> Splittable_dual.run inst t_star) with
  | Dual.Accepted schedule -> { schedule; accepted = t_star; bound_tests = tests }
  | Dual.Rejected r ->
    (* Cannot happen: t_star is accepted by construction. *)
    failwith (Format.asprintf "Splittable_cj: T* unexpectedly rejected: %a" Dual.pp_rejection r)
