module Json = Lfrc_util.Json
module Sched = Lfrc_sched.Sched

(* A "site" is the instrumentation label of an operation span —
   "lfrc.load", "lfrc.destroy", … — registered when its first call
   completes. The open frames themselves live on {!Obs}'s per-thread
   stack: a retry or DCAS failure charges the innermost open frame on
   the thread it happened on, and {!Obs.op_end} hands the popped frame's
   counts to [finish]. *)

type site = {
  label : string;
  mutable calls : int;
  mutable retries : int;  (* operation-loop re-runs (LFRC retry shims) *)
  mutable dcas_retries : int;  (* failed CAS/DCAS attempts underneath *)
  mutable steps_total : int;  (* scheduler steps spent inside, summed *)
  mutable steps_max : int;
}

type reg = {
  lock : Mutex.t;
  metrics : Metrics.t;
  sites : (string, site) Hashtbl.t;
  unattributed : site;  (* failures with no open frame on their thread *)
}

(* Single-branch off switch, same as the disabled Metrics singleton. *)
type t = Disabled | On of reg

let new_site label =
  { label; calls = 0; retries = 0; dcas_retries = 0; steps_total = 0;
    steps_max = 0 }

let create ?(metrics = Metrics.disabled) () =
  On
    {
      lock = Mutex.create ();
      metrics;
      sites = Hashtbl.create 16;
      unattributed = new_site "(unattributed)";
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

let site_of r label =
  match Hashtbl.find_opt r.sites label with
  | Some s -> s
  | None ->
      let s = new_site label in
      Hashtbl.add r.sites label s;
      s

let finish t label ~start_step ~retries ~dcas_retries =
  match t with
  | Disabled -> ()
  | On r ->
      let steps = max 0 (Sched.steps_so_far () - start_step) in
      locked r (fun () ->
          let site = site_of r label in
          site.calls <- site.calls + 1;
          site.retries <- site.retries + retries;
          site.dcas_retries <- site.dcas_retries + dcas_retries;
          site.steps_total <- site.steps_total + steps;
          if steps > site.steps_max then site.steps_max <- steps);
      (* Observed for every completed call — zeros included — so the
         histograms are populated deterministically, not only under
         contention. Metrics has its own lock; observe outside ours. *)
      Metrics.observe r.metrics (label ^ ".retries") (float_of_int retries);
      Metrics.observe r.metrics (label ^ ".steps") (float_of_int steps);
      Metrics.observe r.metrics ("dcas.retries." ^ label)
        (float_of_int dcas_retries)

let unattributed t ~retries ~dcas_retries =
  match t with
  | Disabled -> ()
  | On r ->
      locked r (fun () ->
          let u = r.unattributed in
          u.retries <- u.retries + retries;
          u.dcas_retries <- u.dcas_retries + dcas_retries)

(* --- reporting --- *)

type row = {
  r_site : string;
  r_calls : int;
  r_retries : int;
  r_dcas_retries : int;
  r_wasted : int;
  r_steps_total : int;
  r_steps_max : int;
}

let row_of (s : site) =
  {
    r_site = s.label;
    r_calls = s.calls;
    r_retries = s.retries;
    r_dcas_retries = s.dcas_retries;
    r_wasted = s.retries + s.dcas_retries;
    r_steps_total = s.steps_total;
    r_steps_max = s.steps_max;
  }

let rows t =
  match t with
  | Disabled -> []
  | On r ->
      let all =
        locked r (fun () ->
            let acc =
              Hashtbl.fold (fun _ s acc -> row_of s :: acc) r.sites []
            in
            if
              r.unattributed.retries > 0 || r.unattributed.dcas_retries > 0
            then row_of r.unattributed :: acc
            else acc)
      in
      (* Most wasted attempts first: the contention hot list. *)
      List.sort
        (fun a b -> compare (b.r_wasted, a.r_site) (a.r_wasted, b.r_site))
        all

let mean_steps row =
  if row.r_calls = 0 then 0.0
  else float_of_int row.r_steps_total /. float_of_int row.r_calls

let table t =
  match rows t with
  | [] -> "no profiled sites\n"
  | rs ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %8s %8s %8s %8s %10s %8s\n" "site" "calls"
           "retries" "dcas" "wasted" "steps/op" "max");
      List.iter
        (fun row ->
          Buffer.add_string buf
            (Printf.sprintf "%-28s %8d %8d %8d %8d %10.2f %8d\n" row.r_site
               row.r_calls row.r_retries row.r_dcas_retries row.r_wasted
               (mean_steps row) row.r_steps_max))
        rs;
      Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"sites\":[";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"site\":\"%s\",\"calls\":%d,\"retries\":%d,\"dcas_retries\":%d,\
            \"wasted\":%d,\"steps_total\":%d,\"steps_max\":%d,\
            \"steps_per_op\":%.4f}"
           (Json.escape row.r_site) row.r_calls row.r_retries
           row.r_dcas_retries row.r_wasted row.r_steps_total row.r_steps_max
           (mean_steps row)))
    (rows t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
