(* Pure diff engine behind `bench --compare` (and its `--explain` mode).

   Extracted from bench/main.ml so the gating logic is testable against
   hand-edited baselines without touching the filesystem: [diff] works
   over parsed {!Lfrc_util.Json} documents and returns a verdict record;
   the callers render it and turn it into an exit code.

   Gating policy (PR 7's grace rules, extended to histograms):
   - ops/sec regressions beyond the threshold gate; wall-clock is noisy,
     so the threshold is generous (default 30%).
   - counters are deterministic under the simulated scheduler: any
     change on a matched workload is a behavior change and gates.
   - histograms gate on their "n" (observation count — deterministic),
     same exact rule; the summary statistics are derived and never
     gated.
   - anything absent from the baseline — a new workload, a new counter,
     a NEW HISTOGRAM KEY — is information, not drift: reported, never
     gated, so a PR adding an instrument does not need its baseline
     regenerated in the same commit. *)

module J = Lfrc_util.Json

let default_current = "BENCH_current.json"
let default_baseline = "BENCH_pr10.json"

type row = {
  name : string;
  base_ops : float option;
  cur_ops : float option;
  pct : float option;  (* ops/sec delta, when both sides have it *)
  is_new : bool;
  regressed : bool;
}

type drift = {
  workload : string;
  key : string;
  base : float;
  cur : float;
  pct : float;
}

type verdict = {
  rows : row list;
  counter_drift : drift list;  (* matched counters that changed: gates *)
  counter_new : (string * string * float) list;  (* report-only *)
  hist_drift : drift list;  (* matched histogram "n" that changed: gates *)
  hist_new : (string * string) list;  (* report-only *)
  regressions : (string * float) list;  (* (workload, pct): gates *)
}

let ok v = v.regressions = [] && v.counter_drift = [] && v.hist_drift = []

(* Report-only mode forgives wall-clock noise, never a behaviour change. *)
let passes ~report_only v =
  ok v || (report_only && v.counter_drift = [] && v.hist_drift = [])

let workloads doc =
  match Option.bind (J.member "workloads" doc) J.to_list with
  | Some l -> l
  | None -> []

let wl_name w = Option.bind (J.member "structure" w) J.to_str

let find_workload doc name =
  List.find_opt (fun w -> wl_name w = Some name) (workloads doc)

let num_fields path_ w =
  match Option.map J.obj_fields (J.path path_ w) with
  | Some fields ->
      List.filter_map
        (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_num v))
        fields
  | None -> []

let counters w = num_fields [ "metrics"; "counters" ] w

(* A histogram's deterministic axis is its observation count. *)
let histogram_ns w =
  match Option.map J.obj_fields (J.path [ "metrics"; "histograms" ] w) with
  | Some fields ->
      List.filter_map
        (fun (k, v) ->
          Option.map (fun n -> (k, n)) (Option.bind (J.member "n" v) J.to_num))
        fields
  | None -> []

let ops w = Option.bind (J.member "ops_per_sec" w) J.to_num

let diff ~threshold ~current ~baseline =
  let counter_drift = ref []
  and counter_new = ref []
  and hist_drift = ref []
  and hist_new = ref []
  and regressions = ref [] in
  let series ~name ~gated_out ~new_out ~base_kvs ~cur_kvs ~on_new =
    List.iter
      (fun (key, c) ->
        match List.assoc_opt key base_kvs with
        | Some b ->
            if c <> b then
              let pct =
                if b > 0. then (c -. b) /. b *. 100. else Float.infinity
              in
              gated_out := { workload = name; key; base = b; cur = c; pct }
                           :: !gated_out
        | None -> if c > 0. then new_out := on_new key c :: !new_out)
      cur_kvs;
    (* Registries only serialize non-zero series, so a known counter the
       current run drives all the way to zero (wait-free mode's
       lfrc.rc_retry, say) is simply absent from the current JSON. That
       is the strongest possible drift, not a missing instrument: compare
       it as 0, i.e. a -100% move on the matched key. *)
    List.iter
      (fun (key, b) ->
        if b > 0. && List.assoc_opt key cur_kvs = None then
          gated_out :=
            { workload = name; key; base = b; cur = 0.; pct = -100. }
            :: !gated_out)
      base_kvs
  in
  let rows =
    List.filter_map
      (fun cur_wl ->
        match wl_name cur_wl with
        | None -> None
        | Some name ->
            let cur_ops = ops cur_wl in
            Some
              (match find_workload baseline name with
              | None ->
                  {
                    name;
                    base_ops = None;
                    cur_ops;
                    pct = None;
                    is_new = true;
                    regressed = false;
                  }
              | Some base_wl ->
                  let base_ops = ops base_wl in
                  let pct =
                    match (base_ops, cur_ops) with
                    | Some b, Some c when b > 0. ->
                        Some ((c -. b) /. b *. 100.)
                    | _ -> None
                  in
                  let regressed =
                    match pct with Some p -> p < -.threshold | None -> false
                  in
                  if regressed then
                    regressions := (name, Option.get pct) :: !regressions;
                  series ~name ~gated_out:counter_drift ~new_out:counter_new
                    ~base_kvs:(counters base_wl) ~cur_kvs:(counters cur_wl)
                    ~on_new:(fun key c -> (name, key, c));
                  series ~name ~gated_out:hist_drift ~new_out:hist_new
                    ~base_kvs:(histogram_ns base_wl)
                    ~cur_kvs:(histogram_ns cur_wl)
                    ~on_new:(fun key _ -> (name, key));
                  { name; base_ops; cur_ops; pct; is_new = false; regressed }))
      (workloads current)
  in
  {
    rows;
    counter_drift = List.rev !counter_drift;
    counter_new = List.rev !counter_new;
    hist_drift = List.rev !hist_drift;
    hist_new = List.rev !hist_new;
    regressions = List.rev !regressions;
  }

(* --- rendering --- *)

let render ~threshold ~current_file ~baseline_file v =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "# bench compare: %s vs baseline %s (threshold %.0f%%)\n" current_file
    baseline_file threshold;
  p "%-22s %12s %12s %9s\n" "structure" "baseline" "current" "delta";
  List.iter
    (fun r ->
      if r.is_new then
        p "%-22s %12s %12s %9s  (new workload)\n" r.name "-"
          (match r.cur_ops with
          | Some c -> Printf.sprintf "%.0f" c
          | None -> "?")
          "-"
      else
        match (r.base_ops, r.cur_ops, r.pct) with
        | Some b, Some c, Some pct ->
            p "%-22s %12.0f %12.0f %+8.1f%%%s\n" r.name b c pct
              (if r.regressed then "  <-- REGRESSION" else "")
        | _ -> p "%-22s (ops/sec missing on one side)\n" r.name)
    v.rows;
  (match v.counter_new with
  | [] -> ()
  | fresh ->
      p "new counters (absent from baseline; not gated):\n";
      List.iter
        (fun (wl, key, c) -> p "  %-14s %-24s %12s %12.0f      new\n" wl key "-" c)
        fresh);
  (match v.hist_new with
  | [] -> ()
  | fresh ->
      p "new histograms (absent from baseline; not gated):\n";
      List.iter (fun (wl, key) -> p "  %-14s %-24s      new\n" wl key) fresh);
  (match v.counter_drift with
  | [] -> p "counters: all equal to baseline\n"
  | drift ->
      p "counter drift (any change):\n";
      List.iter
        (fun d ->
          p "  %-14s %-24s %12.0f %12.0f %+8.1f%%\n" d.workload d.key d.base
            d.cur d.pct)
        drift);
  (match v.hist_drift with
  | [] -> ()
  | drift ->
      p "histogram drift (observation count \"n\", any change):\n";
      List.iter
        (fun d ->
          p "  %-14s %-24s %12.0f %12.0f %+8.1f%%\n" d.workload d.key d.base
            d.cur d.pct)
        drift);
  if ok v then
    p "no ops/sec regression beyond %.0f%%, no counter/histogram drift\n"
      threshold
  else begin
    List.iter
      (fun (name, pct) ->
        p "REGRESSION: %s ops/sec %+.1f%% (threshold %.0f%%)\n" name pct
          threshold)
      v.regressions;
    if v.counter_drift <> [] then
      p "COUNTER DRIFT: %d counter(s) changed on matched workloads \
         (deterministic under the simulator, so this is a behavior change, \
         not noise)\n"
        (List.length v.counter_drift);
    if v.hist_drift <> [] then
      p "HISTOGRAM DRIFT: %d histogram(s) changed observation count on \
         matched workloads\n"
        (List.length v.hist_drift)
  end;
  Buffer.contents buf

(* --- the explainer ---

   Attribute each regressed workload's ops/sec drift to what moved
   underneath it: the counters, the profiler's per-site wasted attempts,
   and the blame layer's victim -> culprit pairs. None of this proves
   causation — it ranks the instruments that moved the most, which is
   where to look first. *)

let profile_sites w =
  match Option.bind (J.path [ "profile"; "sites" ] w) J.to_list with
  | Some sites ->
      List.filter_map
        (fun s ->
          match
            ( Option.bind (J.member "site" s) J.to_str,
              Option.bind (J.member "wasted" s) J.to_num )
          with
          | Some site, Some wasted -> Some (site, wasted)
          | _ -> None)
        sites
  | None -> []

let blame_pairs w =
  match Option.bind (J.path [ "blame"; "pairs" ] w) J.to_list with
  | Some pairs ->
      List.filter_map
        (fun pr ->
          match
            ( Option.bind (J.member "victim" pr) J.to_str,
              Option.bind (J.member "culprit" pr) J.to_str,
              Option.bind (J.member "wasted" pr) J.to_num )
          with
          | Some v, Some c, Some w -> Some (v ^ " -> " ^ c, w)
          | _ -> None)
        pairs
  | None -> []

(* Movers of one keyed series between two sides, largest |delta| first.
   Keys on either side only are kept (delta from/to 0). *)
let movers base_kvs cur_kvs =
  let keys =
    List.sort_uniq compare (List.map fst base_kvs @ List.map fst cur_kvs)
  in
  List.filter_map
    (fun k ->
      let b = Option.value ~default:0. (List.assoc_opt k base_kvs)
      and c = Option.value ~default:0. (List.assoc_opt k cur_kvs) in
      if b = c then None else Some (k, b, c))
    keys
  |> List.sort (fun (k1, b1, c1) (k2, b2, c2) ->
         compare (Float.abs (c2 -. b2), k1) (Float.abs (c1 -. b1), k2))

let render_movers buf ~label ~top base_kvs cur_kvs =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match movers base_kvs cur_kvs with
  | [] -> p "  %s: nothing moved\n" label
  | ms ->
      p "  %s (top %d of %d movers):\n" label (min top (List.length ms))
        (List.length ms);
      List.iteri
        (fun i (k, b, c) ->
          if i < top then
            let pct =
              if b > 0. then Printf.sprintf "%+.1f%%" ((c -. b) /. b *. 100.)
              else "new"
            in
            p "    %-40s %12.0f -> %-12.0f %s\n" k b c pct)
        ms

let explain ~current ~baseline v =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let explain_one name pct =
    p "\nwhy: %s ops/sec %+.1f%%\n" name pct;
    match (find_workload baseline name, find_workload current name) with
    | Some bw, Some cw ->
        render_movers buf ~label:"counters" ~top:5 (counters bw)
          (counters cw);
        render_movers buf ~label:"histogram n" ~top:5 (histogram_ns bw)
          (histogram_ns cw);
        (match (profile_sites bw, profile_sites cw) with
        | [], [] -> p "  profile: no site data on either side\n"
        | b, c -> render_movers buf ~label:"profile wasted attempts" ~top:5 b c);
        (match (blame_pairs bw, blame_pairs cw) with
        | [], [] -> p "  blame: no victim->culprit data on either side\n"
        | [], c ->
            p "  blame (new in this run; baseline has none):\n";
            List.iteri
              (fun i (k, w) -> if i < 5 then p "    %-40s %12.0f wasted\n" k w)
              c
        | b, c -> render_movers buf ~label:"blame victim -> culprit" ~top:5 b c)
    | _ -> p "  (workload missing on one side)\n"
  in
  (match v.regressions with
  | [] -> (
      p "\nno ops/sec regressions to explain";
      (* Still useful on green runs: name the biggest movers overall. *)
      match
        List.filter_map
          (fun (r : row) ->
            match r.pct with Some pct -> Some (r, pct) | None -> None)
          v.rows
        |> List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a))
      with
      | (worst, pct) :: _ when Float.abs pct >= 1.0 ->
          p "; largest mover:\n";
          explain_one worst.name pct
      | _ -> p "\n")
  | regs -> List.iter (fun (name, pct) -> explain_one name pct) regs);
  Buffer.contents buf
