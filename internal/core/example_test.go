package core_test

import (
	"context"
	"fmt"
	"log"

	"fleaflicker/internal/core"
	"fleaflicker/internal/program"
)

// Example runs a three-instruction program on the two-pass machine and
// verifies it against the functional reference executor.
func Example() {
	p, err := program.Assemble("hello", `
        movi r1 = 20
        movi r2 = 22 ;;
        add r3 = r1, r2 ;;
        movi r4 = 0x1000 ;;
        st4 [r4] = r3 ;;
        halt ;;
`)
	if err != nil {
		log.Fatal(err)
	}
	r, err := core.Simulate(context.Background(), core.TwoPass, p, core.WithVerify())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retired %d instructions on the %s machine\n", r.Instructions, r.Model)
	// Output: retired 6 instructions on the 2P machine
}
