type t =
  | Round_robin
  | Random of int
  | Pct of { seed : int; change_points : int }
  | Scripted of { prefix : int array; tail_seed : int option }
  | Handicap of { seed : int; victim : int; period : int }

exception Script_diverged of { step : int; wanted : int; enabled : int }

(* One-token descriptions, parseable back by [of_string] so a failure
   message alone is enough to reproduce a randomized run. [Scripted] is
   the exception: its prefix can be arbitrarily long, so it is described
   but not parseable. *)
let describe = function
  | Round_robin -> "rr"
  | Random seed -> Printf.sprintf "random:%d" seed
  | Pct { seed; change_points } -> Printf.sprintf "pct:%d:%d" seed change_points
  | Scripted { prefix; tail_seed } ->
      Printf.sprintf "scripted:%d%s" (Array.length prefix)
        (match tail_seed with None -> "" | Some s -> Printf.sprintf ":%d" s)
  | Handicap { seed; victim; period } ->
      Printf.sprintf "handicap:%d:%d:%d" seed victim period

let of_string s =
  match String.split_on_char ':' s with
  | [ "rr" ] -> Some Round_robin
  | [ "random"; seed ] -> Option.map (fun s -> Random s) (int_of_string_opt seed)
  | [ "pct"; seed; cp ] -> (
      match (int_of_string_opt seed, int_of_string_opt cp) with
      | Some seed, Some change_points -> Some (Pct { seed; change_points })
      | _ -> None)
  | [ "handicap"; seed; victim; period ] -> (
      match
        (int_of_string_opt seed, int_of_string_opt victim,
         int_of_string_opt period)
      with
      | Some seed, Some victim, Some period ->
          Some (Handicap { seed; victim; period })
      | _ -> None)
  | _ -> None

type state =
  | Rr_state
  | Random_state of Lfrc_util.Rng.t
  | Pct_state of {
      rng : Lfrc_util.Rng.t;
      priorities : float array; (* lower value = runs first *)
      change_steps : int array; (* sorted step indices where priority drops *)
      mutable next_change : int; (* first index of [change_steps] not passed *)
    }
  | Scripted_state of { prefix : int array; tail : Lfrc_util.Rng.t option }
  | Handicap_state of { rng : Lfrc_util.Rng.t; victim : int; period : int }

let max_threads = 62

(* The choice helpers are top-level loops over the enabled bitmask, so
   a step allocates nothing. *)
let rec popcount_from mask n =
  if mask = 0 then n else popcount_from (mask land (mask - 1)) (n + 1)

let rec first_enabled_from enabled i =
  if enabled land (1 lsl i) <> 0 then i
  else if i >= max_threads then invalid_arg "Strategy: empty enabled set"
  else first_enabled_from enabled (i + 1)

(* Next enabled thread from [i] on, wrapping. *)
let rec next_enabled enabled i =
  let i = if i > max_threads then 0 else i in
  if enabled land (1 lsl i) <> 0 then i else next_enabled enabled (i + 1)

(* Id of the [r]-th (from 0) set bit of [mask], counting from bit [i]. *)
let rec nth_set_bit mask r i =
  if mask land 1 = 0 then nth_set_bit (mask lsr 1) r (i + 1)
  else if r = 0 then i
  else nth_set_bit (mask lsr 1) (r - 1) (i + 1)

(* Uniform choice among the set bits of [mask]. *)
let pick_bit rng mask =
  nth_set_bit mask (Lfrc_util.Rng.int rng (popcount_from mask 0)) 0

(* The enabled thread with the lowest priority value, the lowest id on a
   tie. *)
let rec most_urgent (priorities : float array) mask i best =
  if mask = 0 then best
  else
    let best =
      if mask land 1 <> 0 && (best < 0 || priorities.(i) < priorities.(best))
      then i
      else best
    in
    most_urgent priorities (mask lsr 1) (i + 1) best

let start t ~expected_steps =
  match t with
  | Round_robin -> Rr_state
  | Random seed -> Random_state (Lfrc_util.Rng.create seed)
  | Pct { seed; change_points } ->
      let rng = Lfrc_util.Rng.create seed in
      let priorities =
        Array.init max_threads (fun _ -> Lfrc_util.Rng.float rng)
      in
      let change_steps =
        Array.init change_points (fun _ ->
            Lfrc_util.Rng.int rng (max expected_steps 1))
      in
      Array.sort compare change_steps;
      Pct_state { rng; priorities; change_steps; next_change = 0 }
  | Scripted { prefix; tail_seed } ->
      Scripted_state
        { prefix; tail = Option.map Lfrc_util.Rng.create tail_seed }
  | Handicap { seed; victim; period } ->
      Handicap_state { rng = Lfrc_util.Rng.create seed; victim; period }

let choose st ~step ~enabled ~last =
  match st with
  | Rr_state -> next_enabled enabled (last + 1)
  | Random_state rng -> pick_bit rng enabled
  | Pct_state p ->
      (* Steps only grow, so a cursor over the sorted [change_steps] finds
         this step's change points; a step drawn twice still demotes
         once. *)
      let at_change = ref false in
      while
        p.next_change < Array.length p.change_steps
        && p.change_steps.(p.next_change) <= step
      do
        if p.change_steps.(p.next_change) = step then at_change := true;
        p.next_change <- p.next_change + 1
      done;
      (* At a change point, demote the currently highest-priority enabled
         thread to the back of the priority order. *)
      if !at_change then begin
        let best = most_urgent p.priorities enabled 0 (-1) in
        p.priorities.(best) <- 1.0 +. Lfrc_util.Rng.float p.rng
      end;
      most_urgent p.priorities enabled 0 (-1)
  | Handicap_state { rng; victim; period } ->
      (* Duty-cycle stall: the victim runs normally for [period] steps,
         then freezes for [period] steps, repeatedly — so it can be
         caught mid-operation (e.g. holding a lock) when the freeze
         begins. If it is the only enabled thread it runs regardless. *)
      let frozen = step mod (2 * period) >= period in
      let eligible =
        if frozen && enabled <> 1 lsl victim then
          enabled land lnot (1 lsl victim)
        else enabled
      in
      pick_bit rng eligible
  | Scripted_state { prefix; tail } ->
      if step < Array.length prefix then begin
        let wanted = prefix.(step) in
        if enabled land (1 lsl wanted) = 0 then
          raise (Script_diverged { step; wanted; enabled });
        wanted
      end
      else begin
        match tail with
        | None -> first_enabled_from enabled 0
        | Some rng -> pick_bit rng enabled
      end
