package linalg

import (
	"math"
	"math/bits"
	"slices"
)

// Exact (order-independent) summation for the global reductions of the
// PCG solver.  A dot product reduced across ranks in floating point
// depends on the partition: rank partial sums round differently than the
// serial sum, so "serial matches distributed" could only hold to a
// tolerance.  Instead every dot product is defined as the *exactly*
// rounded sum of the per-element products fl(x_i*y_i): each product is
// rounded to float64 once (identically on any rank holding the element)
// and the sum is carried in a wide fixed-point accumulator that commits
// no rounding until the final conversion back to float64.  The result is
// independent of both the summation order and the processor count, which
// is what makes the distributed solver bitwise-reproducible against the
// serial reference for any P.
//
// The accumulator is a Kulisch-style superaccumulator: an array of
// 32-bit digits spanning every bit position a float64 sum can touch,
// from below the smallest subnormal ulp (2^-1074) up past the largest
// exponent (2^1023) plus carry headroom.  Adding a float64 is three
// shifted integer adds plus a (amortized-constant) carry ripple — no
// allocation, no wide multiply.  It replaces a 4096-bit big.Float
// accumulator that dominated the implicit workload's host profile
// (about half its CPU time and two thirds of its allocations); the sum
// is the same mathematically exact value, so Float64 rounds to
// identical bits, and Bytes emits the exact byte stream the big.Float
// gob encoding produced — so every simulated message cost of the
// distributed reductions is unchanged.  Both equivalences are pinned
// against a live big.Float reference by TestAccMatchesBigFloatReference.
const (
	accDigitBits = 32
	accDigitMask = 1<<accDigitBits - 1

	// accExpMin is the weight of accumulator bit 0: digits cover
	// [2^accExpMin, 2^(accExpMin+accDigits*32)).  -1088 leaves 14 bits
	// of slack below the smallest subnormal ulp and keeps the offset a
	// multiple of 32.
	accExpMin = -1088

	// accDigits spans 2240 bits: positions up to 2^1152, far above the
	// ~2^1056 a sum of 2^32 maximal float64 terms can reach.
	accDigits = 70
)

// accPrec is the precision field of the wire format: the width of the
// big.Float this accumulator's serialization stays bit-compatible with
// (see Bytes).
const accPrec = 4096

// Acc is an exact accumulator of float64 values.
//
// The digits are kept canonical (each in [0, 2^32)) with an ext word
// extending the two's complement above the top digit: ext == -1 means
// the accumulated value is negative.  Canonical form makes the running
// sum's exact binary exponent cheap to read, which the wire-format
// model below needs after every add.
//
// mLsb/mHas/mOK mirror the one piece of big.Float state the gob wire
// format exposes beyond the value: the stored mantissa width.  big.Float
// addition aligns operands at the lower stored lsb and keeps the
// trailing zero words, so the width is a function of the whole add
// history, not of the final value; Bytes must reproduce it exactly or
// the serialized length — and with it the simulated cost of every
// transported accumulator — would drift.  The evolution rule is
// compact: a fresh term t occupies one 64-bit word (stored lsb =
// exp(t) - 64); an add realigns at min of the stored lsbs and re-tops
// the window at the new exponent, capped at prec/64 words (the round
// step trims only alignment zeros — the true bit span of any float64
// sum fits in 2100 bits, so the value stays exact).
type Acc struct {
	dig [accDigits]uint64 // canonical digits in [0, 2^32)
	ext int64             // two's-complement extension: 0 or -1
	top int               // scan hint: no nonzero digit above this index

	pos, neg bool // a +Inf / -Inf was accumulated

	mHas bool // wire model: sum is in finite nonzero form
	mLsb int  // wire model: stored lsb bit position (absolute exponent)
}

// NewAcc returns an empty exact accumulator.
func NewAcc() *Acc { return &Acc{} }

// addAt adds the signed 32-bit chunks d0..d2 at digit index i (a
// float64 term's mantissa split; i+2 < accDigits by the exponent
// range), rippling the carry while keeping digits canonical.
// Amortized constant: a long ripple clears carry potential the way a
// binary counter does.
func (a *Acc) addAt(i int, d0, d1, d2 int64) {
	s := int64(a.dig[i]) + d0
	a.dig[i] = uint64(s) & accDigitMask
	c := s >> accDigitBits
	s = int64(a.dig[i+1]) + d1 + c
	a.dig[i+1] = uint64(s) & accDigitMask
	c = s >> accDigitBits
	s = int64(a.dig[i+2]) + d2 + c
	a.dig[i+2] = uint64(s) & accDigitMask
	c = s >> accDigitBits
	j := i + 3
	for c != 0 && j < accDigits {
		s = int64(a.dig[j]) + c
		a.dig[j] = uint64(s) & accDigitMask
		c = s >> accDigitBits
		j++
	}
	a.ext += c
	if a.ext != 0 && a.ext != -1 {
		panic("linalg: exact accumulator overflow") // unreachable by sizing
	}
	if j > a.top+1 {
		a.top = j - 1
	}
}

// addDig adds one signed value at digit index i with carry ripple; safe
// at any index (Merge and decode land on the topmost digits, where the
// three-chunk fast path would run off the array).  ext is allowed to
// leave {0,-1} transiently — a merge adds a negative operand's
// two's-complement digits before its ext compensates — so the range
// check belongs to the caller's final state, not here.
func (a *Acc) addDig(i int, v int64) {
	j := i
	for v != 0 && j < accDigits {
		s := int64(a.dig[j]) + v
		a.dig[j] = uint64(s) & accDigitMask
		v = s >> accDigitBits
		j++
	}
	a.ext += v
	if j > a.top+1 {
		a.top = j - 1
	}
}

// msb returns the absolute bit position of the magnitude's most
// significant bit, or ok=false for an exact zero.
func (a *Acc) msb() (int, bool) {
	if a.ext == 0 {
		t := a.top
		for t >= 0 && a.dig[t] == 0 {
			t--
		}
		a.top = t
		if t < 0 {
			a.top = 0
			return 0, false
		}
		return accDigitBits*t + bits.Len64(a.dig[t]) - 1 + accExpMin, true
	}
	// Negative: magnitude = 2^(32*accDigits) - D.  Above D's lowest set
	// bit the magnitude is ~D, below it is ..0001<zeros>; the msb is the
	// highest zero bit of D unless D is of the form 1...10...0, where
	// the magnitude collapses to that lowest set bit.
	h := accDigits - 1
	for h >= 0 && a.dig[h] == accDigitMask {
		h--
	}
	if h < 0 {
		return accExpMin, true // D = 2^N - 1: the value is -1 ulp
	}
	cand := accDigitBits*h + bits.Len64(^a.dig[h]&accDigitMask) - 1
	l := 0
	for l < accDigits && a.dig[l] == 0 {
		l++
	}
	if l == accDigits {
		panic("linalg: exact accumulator: negative with zero digits") // value -2^N is out of range
	}
	if fs := accDigitBits*l + bits.TrailingZeros64(a.dig[l]); fs > cand {
		cand = fs
	}
	return cand + accExpMin, true
}

// add accumulates one float64 term and advances the wire-format model.
func (a *Acc) add(v float64) {
	b := math.Float64bits(v)
	exp := int(b >> 52 & 0x7ff)
	mant := b & (1<<52 - 1)
	if exp == 0x7ff {
		if mant != 0 {
			panic("linalg: exact accumulator: NaN term")
		}
		if b>>63 != 0 {
			a.neg = true
		} else {
			a.pos = true
		}
		if a.pos && a.neg {
			// The big.Float accumulator panicked (ErrNaN) at this add.
			panic("linalg: exact accumulator: addition of infinities with opposite signs")
		}
		return
	}
	if exp == 0 {
		if mant == 0 {
			return // ±0 leaves the sum (and its stored form) untouched
		}
		exp = 1 // subnormal: same 2^-1074 ulp, no hidden bit
	} else {
		mant |= 1 << 52
	}
	// v = ±mant * 2^(exp-1075); bit 0 of mant lands at accumulator bit:
	p := exp - 1075 - accExpMin
	i, off := p>>5, uint(p&31)
	lo := mant << off
	var hi uint64
	if off != 0 {
		hi = mant >> (64 - off)
	}
	d0, d1, d2 := int64(lo&accDigitMask), int64(lo>>accDigitBits), int64(hi)
	if b>>63 != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	a.addAt(i, d0, d1, d2)

	// Wire model: the term's stored lsb is one word below its exponent.
	texp := exp - 1075 + bits.Len64(mant) // binary exponent of v (msb+1)
	m, nz := a.msb()
	if !nz {
		a.mHas = false // exact cancellation: big.Float resets to zero form
		return
	}
	a.model(texp-64, m+1)
}

// model realigns the stored-width model after an operation whose second
// operand has stored lsb oLsb, with the sum's new binary exponent e.
func (a *Acc) model(oLsb, e int) {
	if !a.mHas {
		// Adding to a zero-form big.Float copies the operand's storage.
		a.mHas = true
		a.mLsb = oLsb
		return
	}
	align := a.mLsb
	if oLsb < align {
		align = oLsb
	}
	words := (e - align + 63) / 64
	if words > accPrec/64 {
		words = accPrec / 64 // round trims alignment zeros beyond prec
	}
	a.mLsb = e - 64*words
}

// Add accumulates a single float64 term exactly.
func (a *Acc) Add(v float64) { a.add(v) }

// AddProducts accumulates fl(x_i*y_i) for all i.  The products are
// rounded to float64 before accumulation (see the package note); the
// accumulation itself is exact.
func (a *Acc) AddProducts(x, y []float64) {
	for i := range x {
		a.add(x[i] * y[i])
	}
}

// Merge adds another accumulator's exact sum into this one.
func (a *Acc) Merge(b *Acc) {
	if b.pos || b.neg {
		a.pos = a.pos || b.pos
		a.neg = a.neg || b.neg
		if a.pos && a.neg {
			panic("linalg: exact accumulator: addition of infinities with opposite signs")
		}
		return
	}
	if _, bnz := b.msb(); !bnz {
		return // merging an exact zero leaves value and stored form untouched
	}
	// b's value is digits + ext*2^N (two's complement); a negative b has
	// its borrow rippled to the top, so iterating to b.top covers every
	// nonzero digit in either sign.
	for i := 0; i <= b.top; i++ {
		if d := b.dig[i]; d != 0 {
			a.addDig(i, int64(d))
		}
	}
	a.ext += b.ext
	if a.ext != 0 && a.ext != -1 {
		panic("linalg: exact accumulator overflow")
	}
	m, nz := a.msb()
	if !nz {
		a.mHas = false // exact cancellation: zero form
		return
	}
	if !b.mHas {
		panic("linalg: exact accumulator: merge of accumulator without stored form")
	}
	a.model(b.mLsb, m+1)
}

// bitsAt returns the 64 bits of the digit array starting at absolute
// bit position p (relative to 2^0; positions outside the array read 0).
func bitsAt(mag *[accDigits]uint64, p int) uint64 {
	p -= accExpMin
	if p <= -64 || p >= accDigits*accDigitBits {
		return 0
	}
	if p < 0 {
		return bitsAtIdx(mag, 0) << uint(-p)
	}
	return bitsAtIdx(mag, p)
}

func bitsAtIdx(mag *[accDigits]uint64, p int) uint64 {
	i, off := p>>5, uint(p&31)
	w := mag[i] >> off
	if i+1 < accDigits {
		w |= mag[i+1] << (accDigitBits - off)
	}
	if i+2 < accDigits {
		w |= mag[i+2] << (2*accDigitBits - off) // shifts >= 64 read as 0
	}
	return w
}

// magnitude returns the sign and non-negative digit array of the value.
func (a *Acc) magnitude() (negative bool, mag [accDigits]uint64) {
	if a.ext == 0 {
		return false, a.dig
	}
	borrow := uint64(1)
	for i, d := range a.dig {
		v := (^d & accDigitMask) + borrow
		mag[i] = v & accDigitMask
		borrow = v >> accDigitBits
	}
	return true, mag
}

// Float64 rounds the exact sum to the nearest float64 (ties to even) —
// the single rounding step of the whole reduction.
func (a *Acc) Float64() float64 {
	if a.pos {
		return math.Inf(1)
	}
	if a.neg {
		return math.Inf(-1)
	}
	m, nz := a.msb()
	if !nz {
		return 0
	}
	negative, mag := a.magnitude()
	msb := m - accExpMin // index into the digit array's bit space
	// Round at the float64 ulp: 52 bits below the msb for normal
	// results, or the fixed subnormal ulp position when the value is
	// too small for a normal mantissa.  Both are >= 14 by accExpMin's
	// slack, so guard/sticky positions never underflow the array.
	r := msb - 52
	if u := -1074 - accExpMin; r < u {
		r = u
	}
	mant := bitsAtIdx(&mag, r) & (1<<uint(msb-r+1) - 1)
	if mag[(r-1)>>5]>>uint((r-1)&31)&1 != 0 { // guard bit set
		sticky := false
		low := r - 1
		if mag[low>>5]&(1<<uint(low&31)-1) != 0 {
			sticky = true
		} else {
			for i := low>>5 - 1; i >= 0; i-- {
				if mag[i] != 0 {
					sticky = true
					break
				}
			}
		}
		if sticky || mant&1 == 1 {
			mant++
			if mant == 1<<53 {
				mant >>= 1
				r++
			}
		}
	}
	v := math.Ldexp(float64(mant), r+accExpMin) // overflow rounds to ±Inf, like big.Float
	if negative {
		v = -v
	}
	return v
}

// The serialized form is bit-for-bit the gob encoding of the 4096-bit
// big.Float accumulator this implementation replaced (layout: version,
// mode/accuracy/form/sign byte, precision, exponent, mantissa window),
// so the transport byte stream — and with it the simulated cost of
// every distributed reduction message — is unchanged.
const (
	gobVersion   = 1
	gobAccExact  = 1 << 3 // (accuracy Exact + 1) << 3; mode ToNearestEven is 0
	gobFinite    = 1 << 1
	gobInf       = 2 << 1
	gobNegBit    = 1
	gobHeaderLen = 10 // version + flags + prec (4) + exp (4)
)

// Bytes serializes the accumulator for transport between ranks.
func (a *Acc) Bytes() []byte { return a.appendBytes(nil) }

// appendBytes appends the Bytes serialization of a to dst.
func (a *Acc) appendBytes(dst []byte) []byte {
	if a.pos || a.neg {
		flags := byte(gobAccExact | gobInf)
		if a.neg {
			flags |= gobNegBit
		}
		return append(dst, gobVersion, flags, 0, 0, accPrec>>8, accPrec&0xff)
	}
	m, nz := a.msb()
	if !nz {
		return append(dst, gobVersion, gobAccExact, 0, 0, accPrec>>8, accPrec&0xff)
	}
	negative, mag := a.magnitude()
	exp := m + 1
	if !a.mHas {
		panic("linalg: exact accumulator: nonzero sum without stored form")
	}
	if (exp-a.mLsb)%64 != 0 {
		panic("linalg: exact accumulator: misaligned stored form")
	}
	words := (exp - a.mLsb) / 64
	dst = slices.Grow(dst, gobHeaderLen+8*words)
	start := len(dst)
	dst = dst[:start+gobHeaderLen+8*words]
	buf := dst[start:]
	buf[0] = gobVersion
	buf[1] = gobAccExact | gobFinite
	if negative {
		buf[1] |= gobNegBit
	}
	buf[2], buf[3], buf[4], buf[5] = 0, 0, accPrec>>8, accPrec&0xff // prec, big-endian uint32
	be32 := uint32(int32(exp))
	buf[6], buf[7], buf[8], buf[9] = byte(be32>>24), byte(be32>>16), byte(be32>>8), byte(be32)
	for w := 0; w < words; w++ {
		chunk := bitsAt(&mag, exp-64*(w+1))
		off := gobHeaderLen + 8*w
		for k := 0; k < 8; k++ {
			buf[off+k] = byte(chunk >> uint(56-8*k))
		}
	}
	return dst
}

// AccFromBytes reconstructs an accumulator serialized with Bytes.
func AccFromBytes(data []byte) *Acc { return new(Acc).setBytes(data) }

// setBytes sets a to the accumulator serialized in data (see Bytes),
// discarding what a held, and returns a.
func (a *Acc) setBytes(data []byte) *Acc {
	*a = Acc{}
	if len(data) < 6 || data[0] != gobVersion {
		panic("linalg: exact accumulator decode: bad header")
	}
	negative := data[1]&gobNegBit != 0
	switch (data[1] >> 1) & 3 {
	case 0: // zero form
		return a
	case 2: // infinity
		a.pos, a.neg = !negative, negative
		return a
	case 3:
		panic("linalg: exact accumulator decode: NaN form")
	}
	if len(data) < gobHeaderLen || (len(data)-gobHeaderLen)%8 != 0 {
		panic("linalg: exact accumulator decode: truncated mantissa")
	}
	exp := int(int32(uint32(data[6])<<24 | uint32(data[7])<<16 | uint32(data[8])<<8 | uint32(data[9])))
	mant := data[gobHeaderLen:]
	lsb := exp - 8*len(mant) // stored lsb bit position
	for k := 0; k < len(mant); k++ {
		b := mant[len(mant)-1-k]
		if b == 0 {
			continue
		}
		p := lsb + 8*k - accExpMin
		if p < 0 {
			panic("linalg: exact accumulator decode: value below accumulator range")
		}
		w := uint64(b) << uint(p&31)
		d0, d1 := int64(w&accDigitMask), int64(w>>accDigitBits)
		if negative {
			d0, d1 = -d0, -d1
		}
		a.addDig(p>>5, d0)
		if d1 != 0 {
			a.addDig(p>>5+1, d1)
		}
	}
	if _, nz := a.msb(); nz {
		a.mHas, a.mLsb = true, lsb
	}
	return a
}

// ExactDot returns the exactly rounded dot product of x and y (the
// serial backend's reduction).
func ExactDot(x, y []float64) float64 {
	a := NewAcc()
	a.AddProducts(x, y)
	return a.Float64()
}
