type 'a t = {
  make : unit -> 'a;
  mutable slots : 'a option array;
  grow_lock : Mutex.t;
}

let create make = { make; slots = [||]; grow_lock = Mutex.create () }

(* Slow path, once per identity: copy-on-grow under the lock, so every
   array ever published holds every record created before it. The
   owner's later reads see this array or a newer copy, never an older
   one, so its record never goes missing. *)
let add t id =
  Mutex.protect t.grow_lock (fun () ->
      let a = t.slots in
      match if id < Array.length a then a.(id) else None with
      | Some r -> r
      | None ->
          let r = t.make () in
          let b = Array.make (max (id + 1) (Array.length a)) None in
          Array.blit a 0 b 0 (Array.length a);
          b.(id) <- Some r;
          t.slots <- b;
          r)

let get t id =
  let a = t.slots in
  if id < Array.length a then
    match a.(id) with Some r -> r | None -> add t id
  else add t id

let find t id =
  let a = t.slots in
  if id >= 0 && id < Array.length a then a.(id) else None

let fold f t acc =
  Array.fold_left
    (fun acc -> function Some r -> f acc r | None -> acc)
    acc t.slots
