//go:build !linux

package main

// fsType names the filesystem holding dir; only Linux is recognized.
func fsType(string) string { return "unknown" }
