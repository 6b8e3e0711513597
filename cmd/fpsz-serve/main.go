// Command fpsz-serve is the archive catalog daemon: it exposes a
// directory of .fpsa archives over HTTP, with upload-and-compress,
// full-field and ranged region decode (served from a decoded-chunk LRU
// cache), chunk/group inspection, bounded-concurrency admission, and
// Prometheus metrics.
package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"fixedpsnr/internal/serve"
)

func main() {
	cfg, err := serve.ParseFlags("fpsz-serve", os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	// First SIGINT/SIGTERM starts the graceful drain; a second one hits
	// the restored default handler and force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := serve.Run(ctx, cfg, os.Stderr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fpsz-serve:", err)
		os.Exit(1)
	}
}
