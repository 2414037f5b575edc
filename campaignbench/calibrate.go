package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"time"
)

// calibrator times a fixed piece of work that belongs to the benchmark,
// not to the program: Cholesky factorizations of a small dense matrix,
// a pointer chase through 4 MiB and JSON round trips, the kinds of work
// the service does on every step and predict. The shared host's speed
// drifts by 10-20% over minutes, which moves every timing of a run;
// timed between the phases of every round, this work drifts with it, so
// the end-to-end timings can be stated at a fixed reference speed.
type calibrator struct {
	a, l []float64 // calN×calN symmetric positive definite matrix and its factor
	next []int32   // one random cycle through all calWalk entries
	doc  calDoc
	sink float64 // keeps the work observable
}

const (
	calN    = 40
	calWalk = 1 << 20

	// calRefMs is the reference speed: how long one calibration takes on
	// the machine the benchmark was built on (2 vCPUs of a shared Xeon
	// host).
	calRefMs = 4.0
	// calReps is how many calibrations run at each point of a round.
	calReps = 3
)

type calDoc struct {
	Points [][]float64 `json:"points"`
	Names  []string    `json:"names"`
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{a: make([]float64, calN*calN), l: make([]float64, calN*calN), next: make([]int32, calWalk)}
	b := make([]float64, calN*calN)
	for i := range b {
		b[i] = rng.Float64()
	}
	for i := 0; i < calN; i++ { // a = bᵀb + n·I
		for j := 0; j < calN; j++ {
			s := 0.0
			for k := 0; k < calN; k++ {
				s += b[k*calN+i] * b[k*calN+j]
			}
			if i == j {
				s += calN
			}
			c.a[i*calN+j] = s
		}
	}
	perm := rng.Perm(calWalk)
	for i := range perm {
		c.next[perm[i]] = int32(perm[(i+1)%calWalk])
	}
	for i := 0; i < 16; i++ {
		c.doc.Points = append(c.doc.Points, []float64{rng.Float64(), rng.Float64()})
		c.doc.Names = append(c.doc.Names, "calibration-point")
	}
	return c
}

// measure does the work once and returns how long it took, in ms.
func (c *calibrator) measure() float64 {
	t0 := time.Now()
	for r := 0; r < 15; r++ {
		copy(c.l, c.a)
		for j := 0; j < calN; j++ {
			d := c.l[j*calN+j]
			for k := 0; k < j; k++ {
				d -= c.l[j*calN+k] * c.l[j*calN+k]
			}
			d = math.Sqrt(d)
			c.l[j*calN+j] = d
			for i := j + 1; i < calN; i++ {
				s := c.l[i*calN+j]
				for k := 0; k < j; k++ {
					s -= c.l[i*calN+k] * c.l[j*calN+k]
				}
				c.l[i*calN+j] = s / d
			}
		}
		c.sink += c.l[calN*calN-1]
	}
	p := int32(0)
	for i := 0; i < 50000; i++ {
		p = c.next[p]
	}
	c.sink += float64(p)
	for r := 0; r < 50; r++ {
		b, _ := json.Marshal(&c.doc) // plain data; cannot fail
		var d calDoc
		if json.Unmarshal(b, &d) == nil {
			c.sink += d.Points[r%len(d.Points)][0]
		}
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
