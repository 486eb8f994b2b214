(* Growable int array. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let length v = v.len
end

type entry = {
  tokens : int array;  (* interned trace, frame order *)
  sorted : int array;  (* same tokens, sorted, for the bag bound *)
}

type t = {
  intern : Trace_intern.t;
  threshold : float;
  exact : (int array, int) Hashtbl.t;  (* interned trace -> distinct id *)
  mutable entries : entry array;  (* distinct id -> entry *)
  mutable n_distinct : int;
  parent : Vec.t;  (* union-find over distinct ids *)
  items : Vec.t;  (* item index -> distinct id, observation order *)
  mutable n_clusters : int;
}

let create ?(threshold = 0.34) ~intern () =
  {
    intern;
    threshold;
    exact = Hashtbl.create 64;
    entries = Array.make 16 { tokens = [||]; sorted = [||] };
    n_distinct = 0;
    parent = Vec.create ();
    items = Vec.create ();
    n_clusters = 0;
  }

let threshold t = t.threshold
let length t = Vec.length t.items
let distinct t = t.n_distinct
let cluster_count t = t.n_clusters

let rec find t i =
  let p = Vec.get t.parent i in
  if p = i then i
  else begin
    let r = find t p in
    Vec.set t.parent i r;
    r
  end

(* Matches the batch pass: the root is always the smaller id, so a
   cluster's root is its first-observed distinct trace — and therefore its
   first-observed member, the representative. *)
let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    Vec.set t.parent (max ra rb) (min ra rb);
    t.n_clusters <- t.n_clusters - 1
  end

(* Largest d that still clusters: float d / longest <= threshold, probed
   with the exact float predicate of the batch implementation so the two
   agree on every boundary case. *)
let close_budget t ~longest =
  let close d = float_of_int d /. float_of_int longest <= t.threshold in
  let k = int_of_float (t.threshold *. float_of_int longest) in
  let k = max 0 (min longest k) in
  if close k then begin
    let k = ref k in
    while !k < longest && close (!k + 1) do
      incr k
    done;
    !k
  end
  else begin
    let k = ref k in
    while !k >= 0 && not (close !k) do
      decr k
    done;
    !k
  end

(* Link a brand-new distinct trace against every older one. The bag/length
   bound rejects most pairs in O(len); survivors run the k-bounded kernel
   with k already capped at the threshold budget. *)
let link t id entry =
  let len = Array.length entry.tokens in
  for other = 0 to id - 1 do
    let o = t.entries.(other) in
    let olen = Array.length o.tokens in
    let longest = max len olen in
    if longest = 0 then union t id other
    else begin
      let k = close_budget t ~longest in
      if k >= 0 && abs (len - olen) <= k then
        if
          find t other <> find t id
          (* already chained together: the edge cannot change the partition *)
        then begin
          if Levenshtein.bag_lower_bound entry.sorted o.sorted <= k then
            match Levenshtein.distance_at_most ~k entry.tokens o.tokens with
            | Some _ -> union t id other
            | None -> ()
        end
    end
  done

let ensure_capacity t id =
  if id = Array.length t.entries then begin
    let entries = Array.make (2 * id) { tokens = [||]; sorted = [||] } in
    Array.blit t.entries 0 entries 0 id;
    t.entries <- entries
  end

(* Append a distinct trace without linking: the slot, exact-table and
   dedup bookkeeping shared by [observe] and [load]. *)
let push_distinct t tokens =
  let id = t.n_distinct in
  ensure_capacity t id;
  let sorted = Array.copy tokens in
  Array.sort compare sorted;
  let entry = { tokens; sorted } in
  t.entries.(id) <- entry;
  t.n_distinct <- id + 1;
  Hashtbl.add t.exact tokens id;
  (id, entry)

let observe t trace =
  let tokens = Trace_intern.intern t.intern trace in
  let id =
    match Hashtbl.find_opt t.exact tokens with
    | Some id -> id
    | None ->
        let id, entry = push_distinct t tokens in
        Vec.push t.parent id;
        t.n_clusters <- t.n_clusters + 1;
        link t id entry;
        id
  in
  Vec.push t.items id

let clusters t =
  let n = Vec.length t.items in
  (* root distinct id -> members (item indices), newest first while
     folding, reversed into observation order below *)
  let groups = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let r = find t (Vec.get t.items i) in
    let existing = Option.value (Hashtbl.find_opt groups r) ~default:[] in
    Hashtbl.replace groups r (i :: existing)
  done;
  let all = Hashtbl.fold (fun root members acc -> (root, members) :: acc) groups [] in
  let sorted =
    (* Largest first, as the batch clustering reports; ties broken by
       first observation so the order is deterministic. *)
    List.sort
      (fun (ra, ma) (rb, mb) ->
        let c = compare (List.length mb) (List.length ma) in
        if c <> 0 then c else compare ra rb)
      all
  in
  List.map snd sorted

let representatives t = List.map List.hd (clusters t)

type dump = {
  d_entries : int array list;  (* distinct traces, id order *)
  d_parent : int list;  (* raw union-find vector, one slot per distinct *)
}

let dump t =
  {
    d_entries =
      List.init t.n_distinct (fun i -> Array.copy t.entries.(i).tokens);
    d_parent = List.init t.n_distinct (fun i -> Vec.get t.parent i);
  }

exception Bad of string

let load ?threshold ~intern d =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let t = create ?threshold ~intern () in
  let limit = Trace_intern.size intern in
  try
    List.iter
      (fun tokens ->
        Array.iter
          (fun tok ->
            if tok < 0 || tok >= limit then
              bad "token %d outside the intern table (%d frames)" tok limit)
          tokens;
        if Hashtbl.mem t.exact tokens then bad "duplicate distinct trace";
        ignore (push_distinct t (Array.copy tokens)))
      d.d_entries;
    let n = t.n_distinct in
    if List.length d.d_parent <> n then
      bad "parent table has %d slots for %d distinct traces"
        (List.length d.d_parent) n;
    (* The union-find always roots at the smaller id, so every stored
       parent — compressed or not — must point at or before its slot. *)
    List.iteri
      (fun i p ->
        if p < 0 || p > i then
          bad "parent %d of distinct %d is not min-rooted" p i;
        Vec.push t.parent p)
      d.d_parent;
    (* Every union turns exactly one root into a non-root, so the cluster
       count is recoverable as the number of surviving roots. *)
    for i = 0 to n - 1 do
      if Vec.get t.parent i = i then t.n_clusters <- t.n_clusters + 1
    done;
    Ok t
  with Bad m -> Error ("Index.load: " ^ m)

let replay t trace =
  let tokens = Array.of_list (List.map (Trace_intern.find t.intern) trace) in
  Vec.push t.items (Hashtbl.find t.exact tokens)

let unobserved t =
  let seen = Array.make t.n_distinct false in
  for i = 0 to Vec.length t.items - 1 do
    seen.(Vec.get t.items i) <- true
  done;
  Array.fold_left (fun n s -> if s then n else n + 1) 0 seen
