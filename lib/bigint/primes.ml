let word_limit = 1 lsl 31
let ladder_floor_bits = 29

(* Deterministic Miller-Rabin witnesses valid for all n < 2^64. *)
let witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let is_prime n =
  if n < 0 || n >= word_limit then invalid_arg "Primes.is_prime: out of range";
  if n < 2 then false
  else if n < 4 then true
  else if n land 1 = 0 then false
  else begin
    (* Write n - 1 = d * 2^s with d odd. *)
    let s = ref 0 and d = ref (n - 1) in
    while !d land 1 = 0 do
      incr s;
      d := !d lsr 1
    done;
    let m = Modarith.Word.modulus n in
    let witness a =
      (* true when a proves n composite *)
      let a = a mod n in
      if a = 0 then false
      else begin
        let x = ref (Modarith.Word.pow m a !d) in
        if !x = 1 || !x = n - 1 then false
        else begin
          let proved = ref true in
          (try
             for _ = 1 to !s - 1 do
               x := Modarith.Word.mul m !x !x;
               if !x = n - 1 then begin
                 proved := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !proved
        end
      end
    in
    not (List.exists witness witnesses)
  end

let next_prime n =
  let start = max 2 (n + 1) in
  let rec go c =
    if c >= word_limit then invalid_arg "Primes.next_prime: exceeded 2^31";
    if is_prime c then c else go (c + 1)
  in
  go start

let nth_prime_below i bound =
  if i < 0 || bound <= 2 then raise Not_found;
  let rec go c remaining =
    if c < 2 then raise Not_found
    else if is_prime c then
      if remaining = 0 then c else go (c - 1) (remaining - 1)
    else go (c - 1) remaining
  in
  go (bound - 1) i

(* The ladder is published as an immutable array behind an atomic, so
   domains read it without locks.  Two domains growing it at once both
   compute the same prefix; whichever array lands last is still a valid
   prefix, merely possibly shorter. *)
let ladder_cache = Atomic.make [||]

let ladder i =
  if i < 0 then invalid_arg "Primes.ladder: negative index";
  let have = Atomic.get ladder_cache in
  let n = Array.length have in
  if i < n then have.(i)
  else begin
    let grown = Array.make (max (i + 1) (max 8 (2 * n))) 0 in
    Array.blit have 0 grown 0 n;
    for j = n to Array.length grown - 1 do
      let p = nth_prime_below 0 (if j = 0 then 1 lsl 30 else grown.(j - 1)) in
      if p <= 1 lsl ladder_floor_bits then
        failwith "Primes.ladder: ran below 2^29";
      grown.(j) <- p
    done;
    Atomic.set ladder_cache grown;
    grown.(i)
  end

let ladder_exceeds t bits = t > 0 && ladder_floor_bits * t >= bits

let random_prime g ~bits =
  if bits < 2 || bits > 30 then
    invalid_arg "Primes.random_prime: need 2 <= bits <= 30";
  let lo = 1 lsl (bits - 1) in
  let rec draw () =
    let c = lo lor Commx_util.Prng.int g lo lor 1 in
    (* force top and bottom bits; bits=2 gives 3, which is prime *)
    if is_prime c then c else draw ()
  in
  if bits = 2 then if Commx_util.Prng.bool g then 2 else 3 else draw ()

let primes_below bound =
  if bound > 10_000_000 then invalid_arg "Primes.primes_below: bound too large";
  if bound <= 2 then []
  else begin
    let sieve = Bytes.make bound '\001' in
    Bytes.set sieve 0 '\000';
    Bytes.set sieve 1 '\000';
    let i = ref 2 in
    while !i * !i < bound do
      if Bytes.get sieve !i = '\001' then begin
        let j = ref (!i * !i) in
        while !j < bound do
          Bytes.set sieve !j '\000';
          j := !j + !i
        done
      end;
      incr i
    done;
    let acc = ref [] in
    for p = bound - 1 downto 2 do
      if Bytes.get sieve p = '\001' then acc := p :: !acc
    done;
    !acc
  end

let primorial_bits b =
  (* Rosser: pi(x) > x / ln x for x >= 17.  Primes with exactly b bits
     number at least 2^(b-1)/ln(2^b) - 2^(b-2)/... ; we use the crude
     but valid-for-our-range estimate 2^(b-2) / (b ln 2). *)
  let x = Float.pow 2.0 (float_of_int (b - 2)) in
  x /. (float_of_int b *. log 2.0)

let fingerprint_prime_bits ~n ~k ~epsilon =
  if n <= 0 || k <= 0 || epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Primes.fingerprint_prime_bits";
  (* A nonzero determinant of a 2n x 2n matrix with k-bit entries has,
     by Hadamard, |det| <= (2n)^n * 2^(2nk)... more precisely
     |det| <= prod of row norms <= (sqrt(2n) * 2^k)^(2n), so
     log2 |det| <= 2n * (k + 0.5 * log2 (2n)).  A b-bit prime divides
     it only if it is one of at most log2|det| / (b-1) prime factors;
     with N_b >= primorial_bits b primes available the error is at most
     (log2|det| / (b-1)) / N_b.  Find the smallest b making that
     <= epsilon. *)
  let d = float_of_int n in
  let log2_det = 2.0 *. d *. (float_of_int k +. (0.5 *. log (2.0 *. d) /. log 2.0)) in
  let rec find b =
    if b >= 30 then 30
    else begin
      let err = log2_det /. float_of_int (b - 1) /. primorial_bits b in
      if err <= epsilon then b else find (b + 1)
    end
  in
  find 3
