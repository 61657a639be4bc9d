open Bss_util
open Bss_instances

type outcome =
  | Accepted of Config_schedule.t
  | Rejected of Dual.rejection

let seg start dur content = { Schedule.start; dur; content }

(* A configuration being assembled: segments in increasing start order
   (reversed list) plus the current fill front. *)
type building = { rev_segments : Schedule.seg list; front : Rat.t }

let to_config b ~multiplicity = { Config_schedule.segments = List.rev b.rev_segments; multiplicity }

let construct inst tee =
  let m = inst.Instance.m in
  let half = Rat.div_int tee 2 in
  let three_half = Rat.mul_int half 3 in
  let p = Partition.make inst tee in
  let configs = ref [] in
  let used = ref 0 in
  let emit ?(multiplicity = 1) b =
    if b.rev_segments <> [] then begin
      configs := to_config b ~multiplicity :: !configs;
      used := !used + multiplicity
    end
  in
  (* ---- step 1: expensive classes, gaps of height T/2 above a setup ---- *)
  (* every machine of class i is [setup 0..s][work s..s+T/2]; the middle
     machines a single long job fills whole are emitted with a
     multiplicity computed in O(1) *)
  let leftovers = ref [] (* last machines with front < T, open for step 2 *) in
  List.iter
    (fun i ->
      let s = Rat.of_int inst.Instance.setups.(i) in
      let top = Rat.add s half in
      let fresh () = { rev_segments = [ seg Rat.zero s (Schedule.Setup i) ]; front = s } in
      let cur = ref (fresh ()) in
      let dirty = ref true (* does !cur hold anything beyond its setup? *) in
      Array.iter
        (fun j ->
          let remaining = ref (Rat.of_int inst.Instance.job_time.(j)) in
          while Rat.sign !remaining > 0 do
            let room = Rat.sub top !cur.front in
            if Rat.( < ) !remaining room then begin
              cur :=
                {
                  rev_segments = seg !cur.front !remaining (Schedule.Work j) :: !cur.rev_segments;
                  front = Rat.add !cur.front !remaining;
                };
              dirty := true;
              remaining := Rat.zero
            end
            else begin
              (* fill the gap out and close this machine *)
              emit { !cur with rev_segments = seg !cur.front room (Schedule.Work j) :: !cur.rev_segments };
              remaining := Rat.sub !remaining room;
              (* full middle machines, all identical: [setup][j fills gap] *)
              let fulls = Rat.floor_int (Rat.div !remaining half) in
              if fulls >= 1 then begin
                emit ~multiplicity:fulls
                  { rev_segments = [ seg s half (Schedule.Work j); seg Rat.zero s (Schedule.Setup i) ]; front = top };
                remaining := Rat.sub !remaining (Rat.mul_int half fulls)
              end;
              cur := fresh ();
              dirty := false
            end
          done)
        (Instance.jobs_of_class inst i);
      (* the class's last machine: open for cheap load when short of T *)
      if !dirty then begin
        if Rat.( < ) !cur.front tee then leftovers := !cur :: !leftovers else emit !cur
      end)
    p.Partition.exp;
  let leftovers = List.rev !leftovers in
  (* ---- step 2: cheap classes into leftover tops and empty machines ---- *)
  (* leftover gaps: [front + T/2, 3T/2] on that very machine; empty-machine
     gaps: [T/2, 3T/2], with the below-gap setup convention of Wrap *)
  let cheap_items =
    List.concat_map
      (fun i ->
        `S i
        :: (Array.to_list (Instance.jobs_of_class inst i) |> List.map (fun j -> `J (j, inst.Instance.job_time.(j)))))
      p.Partition.chp
  in
  if cheap_items <> [] then begin
    let pending = ref leftovers in
    let empties_left = ref (m - !used - List.length leftovers) in
    (* current gap state; gaps are opened lazily so a machine boundary
       always places the setup the continuing class needs *)
    let cur = ref None (* (building, gap_hi) *) in
    let exception Out_of_machines in
    let open_next_gap ~below_setup =
      (* close nothing; grab the next gap, placing [below_setup] under it *)
      match !pending with
      | b :: rest ->
        pending := rest;
        let lo = Rat.add b.front half in
        let b =
          match below_setup with
          | None -> b
          | Some cls ->
            let s = Rat.of_int inst.Instance.setups.(cls) in
            { b with rev_segments = seg (Rat.sub lo s) s (Schedule.Setup cls) :: b.rev_segments }
        in
        cur := Some ({ b with front = lo }, three_half)
      | [] ->
        if !empties_left <= 0 then raise Out_of_machines;
        decr empties_left;
        let b =
          match below_setup with
          | None -> { rev_segments = []; front = half }
          | Some cls ->
            let s = Rat.of_int inst.Instance.setups.(cls) in
            { rev_segments = [ seg (Rat.sub half s) s (Schedule.Setup cls) ]; front = half }
        in
        cur := Some (b, three_half)
    in
    let close_current () =
      match !cur with
      | None -> ()
      | Some (b, _) ->
        emit b;
        cur := None
    in
    let current ~below_setup =
      (match !cur with
      | None -> open_next_gap ~below_setup
      | Some _ -> ());
      Option.get !cur
    in
    (try
      List.iter
      (fun item ->
        match item with
        | `S i ->
          let s = Rat.of_int inst.Instance.setups.(i) in
          let b, hi = current ~below_setup:None in
          if Rat.( > ) (Rat.add b.front s) hi then begin
            (* the setup crosses the border: move it below the next gap *)
            close_current ();
            open_next_gap ~below_setup:(Some i)
          end
          else
            cur := Some ({ rev_segments = seg b.front s (Schedule.Setup i) :: b.rev_segments; front = Rat.add b.front s }, hi)
        | `J (j, t) ->
          let cls = inst.Instance.job_class.(j) in
          let remaining = ref (Rat.of_int t) in
          while Rat.sign !remaining > 0 do
            let b, hi = current ~below_setup:(Some cls) in
            let room = Rat.sub hi b.front in
            if Rat.( <= ) !remaining room then begin
              cur :=
                Some
                  ( { rev_segments = seg b.front !remaining (Schedule.Work j) :: b.rev_segments;
                      front = Rat.add b.front !remaining },
                    hi );
              remaining := Rat.zero
            end
            else begin
              emit { b with rev_segments = seg b.front room (Schedule.Work j) :: b.rev_segments };
              cur := None;
              remaining := Rat.sub !remaining room;
              (* full empty machines this job covers alone: emit with a
                 multiplicity (only available once the explicit leftover
                 gaps are exhausted) *)
              if !pending = [] then begin
                let fulls = Rat.floor_int (Rat.div !remaining tee) in
                let fulls = min fulls !empties_left in
                if fulls >= 1 then begin
                  let s = Rat.of_int inst.Instance.setups.(cls) in
                  emit ~multiplicity:fulls
                    {
                      rev_segments = [ seg half tee (Schedule.Work j); seg (Rat.sub half s) s (Schedule.Setup cls) ];
                      front = three_half;
                    };
                  empties_left := !empties_left - fulls;
                  remaining := Rat.sub !remaining (Rat.mul_int tee fulls)
                end
              end;
              (* the loop reopens a gap (with this class's setup) when
                 work remains; otherwise the next item opens its own *)
            end
          done)
      cheap_items
    with Out_of_machines ->
      failwith "Splittable_compact: out of machines (guess was not truly accepted)");
    close_current ();
    (* any untouched leftover machines still carry their expensive load *)
    List.iter (fun b -> emit b) !pending
  end
  else List.iter (fun b -> emit b) leftovers;
  { Config_schedule.m; configs = List.rev !configs }

let run inst tee =
  match Splittable_dual.test inst tee with
  | Error r -> Rejected r
  | Ok () -> Accepted (construct inst tee)

let solve inst =
  let t_star, _ = Splittable_cj.find_t_star inst in
  match run inst t_star with
  | Accepted compact -> (compact, t_star)
  | Rejected r -> failwith (Format.asprintf "Splittable_compact: T* rejected: %a" Dual.pp_rejection r)
