type ('k, 'v) t = { cap : int; tbl : ('k, 'v) Hashtbl.t; order : 'k Queue.t }

let create cap = { cap; tbl = Hashtbl.create (max 16 (min 4096 cap)); order = Queue.create () }
let cap t = t.cap
let find_opt t k = Hashtbl.find_opt t.tbl k

let add t k v =
  if Hashtbl.mem t.tbl k then 0
  else begin
    Hashtbl.replace t.tbl k v;
    Queue.push k t.order;
    let evicted = ref 0 in
    while Hashtbl.length t.tbl > t.cap do
      Hashtbl.remove t.tbl (Queue.pop t.order);
      incr evicted
    done;
    !evicted
  end
