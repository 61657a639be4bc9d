open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

type result = { schedule : Schedule.t; accepted : Rat.t; bound_tests : int }

let mode = Pmtn_nice.Gamma

let solve inst =
  let m = inst.Instance.m in
  let c = Instance.c inst in
  let trivial = Rat.of_int (Lower_bounds.setup_plus_tmax inst) in
  let tests = ref 0 in
  let accept tee =
    incr tests;
    Guard.tick "pmtn_cj.bound_test";
    Probe.count "pmtn_cj.bound_tests";
    Rat.sign tee > 0
    &&
    match Pmtn_dual.test ~mode inst tee with
    | Ok () -> true
    | Error _ -> false
  in
  (* Same test, phase-specific counters: region search (Theorem 6 stage 1)
     vs. the jump families of Lemmas 3/5 vs. the frontier bisection of
     DESIGN.md §7.5. *)
  let accept_region t =
    Probe.count "pmtn_cj.region_steps";
    accept t
  in
  let accept_jump t =
    Probe.count "pmtn_cj.jump_steps";
    accept t
  in
  (* ---- stage 1: region search over all partition breakpoints ---- *)
  let candidates =
    let acc = ref [ Rat.zero; Rat.of_int (2 * inst.Instance.total); trivial ] in
    for i = 0 to c - 1 do
      let s = inst.Instance.setups.(i) and p = inst.Instance.class_load.(i) in
      acc := Rat.of_int (2 * s) :: Rat.of_int (4 * s) :: Rat.of_int (s + p)
             :: Rat.of_ints (4 * (s + p)) 3 :: !acc;
      Instance.iter_class_jobs
        (fun j -> acc := Rat.of_int (2 * (s + inst.Instance.job_time.(j))) :: !acc)
        inst i
    done;
    let arr = Array.of_list !acc in
    Array.sort Rat.compare arr;
    arr
  in
  let first_true =
    (* candidates.(0) = 0 rejected; the largest (2N) accepted *)
    let lo = ref 0 and hi = ref (Array.length candidates - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if accept_region candidates.(mid) then hi := mid else lo := mid
    done;
    !hi
  in
  let lo = ref candidates.(first_true - 1) and hi = ref candidates.(first_true) in
  let interior () = Rat.div_int (Rat.add !lo !hi) 2 in
  (* Narrow (lo, hi) by binary search over a decreasing jump family
     [point κ], κ in [kmin, kmax]; keeps lo rejected / hi accepted. *)
  let narrow_by_jumps point kmin kmax =
    if kmin <= kmax then begin
      if not (accept_jump (point kmin)) then lo := point kmin
      else if accept_jump (point kmax) then hi := point kmax
      else begin
        let a = ref kmin and b = ref kmax in
        while !b - !a > 1 do
          let midk = (!a + !b) / 2 in
          if accept_jump (point midk) then a := midk else b := midk
        done;
        hi := point !a;
        lo := point !b
      end
    end
  in
  (* jump families; denominators grow with κ so points decrease in κ *)
  let family_gamma i kappa = Rat.of_ints (2 * (inst.Instance.setups.(i) + inst.Instance.class_load.(i))) (kappa + 2) in
  let family_beta i kappa = Rat.of_ints (2 * inst.Instance.class_load.(i)) kappa in
  let kappa_range numerator2 shift =
    (* κ with lo < numerator2/(κ+shift) < hi, capped at m+2 *)
    let kmin = Rat.floor_int (Rat.div (Rat.of_int numerator2) !hi) + 1 - shift in
    let kmax =
      if Rat.sign !lo <= 0 then m + 2
      else min (m + 2) (Rat.ceil_int (Rat.div (Rat.of_int numerator2) !lo) - 1 - shift)
    in
    (max kmin (1 - shift), kmax)
  in
  let expensive_plus_interior () =
    let mid = interior () in
    List.filter
      (fun i ->
        Partition.is_expensive inst mid i
        && Rat.( <= ) mid (Rat.of_int (inst.Instance.setups.(i) + inst.Instance.class_load.(i))))
      (List.init c (fun i -> i))
  in
  let plus = expensive_plus_interior () in
  (* ---- stage 2: jumps of the fastest (s+P) class, Lemma 5 ---- *)
  (match plus with
  | [] -> ()
  | i0 :: _ ->
    let weight i = inst.Instance.setups.(i) + inst.Instance.class_load.(i) in
    let f = List.fold_left (fun best i -> if weight i > weight best then i else best) i0 plus in
    let kmin, kmax = kappa_range (2 * weight f) 2 in
    narrow_by_jumps (family_gamma f) kmin kmax;
    (* ---- stage 3: β-jumps of the fastest P class, Lemma 3 ---- *)
    let g = List.fold_left (fun best i -> if inst.Instance.class_load.(i) > inst.Instance.class_load.(best) then i else best) i0 plus in
    let kmin, kmax = kappa_range (2 * inst.Instance.class_load.(g)) 0 in
    narrow_by_jumps (family_beta g) (max kmin 1) kmax;
    (* ---- stage 4: single jumps of every class, both families ---- *)
    let jumps = ref [] in
    List.iter
      (fun i ->
        let collect family numerator2 shift =
          let kmin, kmax = kappa_range numerator2 shift in
          let kmax = min kmax (kmin + 3) in
          for kappa = kmin to kmax do
            let t = family i kappa in
            if Rat.( < ) !lo t && Rat.( < ) t !hi then jumps := t :: !jumps
          done
        in
        collect family_gamma (2 * (inst.Instance.setups.(i) + inst.Instance.class_load.(i))) 2;
        collect family_beta (2 * inst.Instance.class_load.(i)) 0)
      plus;
    let jumps = List.sort_uniq Rat.compare !jumps in
    if Probe.enabled () then Probe.count ~n:(List.length jumps) "pmtn_cj.jump_candidates";
    (match jumps with
    | [] -> ()
    | _ ->
      let arr = Array.of_list jumps in
      let n = Array.length arr in
      if accept_jump arr.(0) then hi := arr.(0)
      else if not (accept_jump arr.(n - 1)) then lo := arr.(n - 1)
      else begin
        let a = ref 0 and b = ref (n - 1) in
        while !b - !a > 1 do
          let midk = (!a + !b) / 2 in
          if accept_jump arr.(midk) then b := midk else a := midk
        done;
        lo := arr.(!a);
        hi := arr.(!b)
      end));
  if Probe.enabled () then
    Probe.event (Event.Interval_exit { source = "pmtn_cj"; lo = !lo; hi = !hi });
  (* ---- final: resolve the crossover inside the jump-free interval ---- *)
  let t_star =
    let mid = interior () in
    let a = Pmtn_dual.analyze ~mode inst mid in
    let l_low, m', l_large, case_a, y, star_count = Pmtn_dual.search_quantities inst mid a in
    if m' > m then !hi
    else begin
      (* piecewise-constant floor of the acceptance threshold *)
      let base = Rat.max trivial (Rat.div_int l_low m) in
      let base =
        if case_a && Rat.sign y < 0 then begin
          Probe.count "pmtn_cj.deviation1";
          (* Y(T) is affine increasing with slope (m − l) + star_count/2 *)
          let slope = Rat.add (Rat.of_int (m - l_large)) (Rat.of_ints star_count 2) in
          if Rat.sign slope <= 0 then !hi
          else Rat.max base (Rat.add mid (Rat.div (Rat.neg y) slope))
        end
        else base
      in
      (* The acceptance threshold inside the piece is [base] except for the
         knapsack's unselected-setup term (and the Y-guard, our patch over
         Theorem 5's implicit assumption, whose infimum may be
         unattained). Seed a bisection with [base] — in the attained,
         knapsack-free case it converges immediately — then bisect: the
         returned guess is accepted and within (hi−lo)/2^40 of a certified
         rejected point, so the ratio stays 3/2 up to a vanishing term. *)
      let rej = ref !lo and acc = ref !hi in
      if Rat.( < ) !rej base && Rat.( < ) base !acc then begin
        if accept base then acc := base else rej := base
      end;
      let rounds = ref 0 in
      while !rounds < 40 && not (Rat.equal !rej !acc) do
        incr rounds;
        Probe.count "pmtn_cj.frontier_rounds";
        let midp = Rat.div_int (Rat.add !rej !acc) 2 in
        if Rat.( <= ) midp !rej || Rat.( >= ) midp !acc then rounds := 40
        else if accept midp then acc := midp
        else rej := midp
      done;
      !acc
    end
  in
  if Probe.enabled () then
    Probe.event (Event.Note { source = "pmtn_cj"; key = "t_star"; value = Rat.to_string t_star });
  match Probe.span "construction" (fun () -> Pmtn_dual.run ~mode inst t_star) with
  | Dual.Accepted schedule -> { schedule; accepted = t_star; bound_tests = !tests }
  | Dual.Rejected r ->
    failwith (Format.asprintf "Pmtn_cj: T* unexpectedly rejected: %a" Dual.pp_rejection r)
