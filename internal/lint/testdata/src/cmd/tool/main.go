// Command tool opts into goroutines the same way every package does now:
// a file-scoped //dophy:concurrency-boundary pragma (cmd/ keeps only its
// wall-clock exemption for free: it is outside determflow's sink scope).
//
//dophy:concurrency-boundary -- CLI-side fan-out; the goroutine is joined before exit
package main

import (
	"fmt"
	"time"
)

func main() {
	start := time.Now()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	fmt.Println(time.Since(start))
}
